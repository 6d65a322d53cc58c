package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"fdrms/internal/dataset"
)

// config is the scale of a run: the database rmsserve builds and the
// answer it maintains. The benchmark runs defaultConfig; the smoke test
// shrinks it.
type config struct {
	N, D, R, M int
	CkptOps    int // rmsserve -ckpt-ops; 0 keeps the server default (50k)
}

func defaultConfig() config {
	return config{N: 100000, D: 6, R: 50, M: 2048}
}

// The fixed make-up of every run.
const (
	regretK    = 1  // rmsserve -k: the k of the k-regret ratio
	serverSeed = 1  // rmsserve -seed: the initial AntiCor database and the utility sample
	topK       = 10 // k of every GET /topk

	starts       = 3    // primary setups, follower starts and restarts; each metric is their median
	regretChecks = 64   // /regret requests checked at the quiescent point
	restartTopK  = 32   // /topk requests checked after the restarts
	mrrSamples   = 1000 // random utility vectors of answer_mrr, besides the basis

	// warmShare is the warm-up sent before the load-phase clock starts, as
	// a share of the timed updates. A freshly started primary runs slower
	// for its first few hundred updates while its heap grows.
	warmShare = 0.15
)

// workload is one traffic mix. Amounts of work are given per second of
// --seconds, so a run does a fixed, seeded amount of work: every run of a
// workload at the same --seconds sends the same number of updates, plus a
// warm-up of warmShare as many before the clock starts. Why each
// workload exists is in README.md and BENCHMARK.json.
type workload struct {
	name  string
	batch int // tuples per POST /update (3 inserts per delete)

	// updatesPerSec update requests per second of --seconds. The ingest
	// workloads send them in a closed loop, each followed by one GET /topk
	// on the same connection; read-mostly sends them on an open-loop
	// schedule at this rate, beside a closed-loop reader.
	updatesPerSec float64
	readMostly    bool

	// Every checkEvery-th read response is kept and checked.
	checkEvery int
}

var workloads = []workload{
	{name: "ingest-single", batch: 1, updatesPerSec: 140, checkEvery: 8},
	{name: "ingest-bulk", batch: 256, updatesPerSec: 43.5, checkEvery: 4},
	{name: "read-mostly", batch: 1, updatesPerSec: 50, readMostly: true, checkEvery: 64},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

type point struct {
	id int
	v  []float64
}

// update is one POST /update: its tuples and its encoded request.
type update struct {
	ins []point
	del []int
	req []byte
}

// Read kinds.
const (
	readTopK = iota
	readRegret
	readResult
)

var readNames = [...]string{"topk", "regret", "result"}

// query is one encoded GET.
type query struct {
	kind int
	u    []float64
	req  []byte
}

// plan is everything a run sends, generated from the seed and encoded
// before any clock starts.
type plan struct {
	cfg     config
	w       workload
	seed    int64
	initial []point // rmsserve's initial database, for the oracle
	updates []update
	// The first warm updates are the warm-up: sent and checked like the
	// rest, but before the load-phase clock starts.
	warm int
	// Ingest: queries[i] is the /topk sent after updates[i]. Read-mostly:
	// the reader cycles through queries.
	queries []query
	answerQ query // GET /result
	// Fixed utility vectors checked at quiescent points and after restart.
	checkU []([]float64)
	mrrU   []([]float64)
}

// freshBase is the first id of an inserted tuple; the initial database uses
// 0..N-1.
const freshBase = 1 << 30

// initialDB regenerates rmsserve's initial database: the server builds it
// with dataset.AntiCor from its -n, -d and -seed flags and serves those
// exact values.
func initialDB(cfg config) []point {
	ds := dataset.AntiCor(cfg.N, cfg.D, serverSeed)
	out := make([]point, len(ds.Points))
	for i, p := range ds.Points {
		out[i] = point{id: p.ID, v: p.Coords}
	}
	return out
}

func makePlan(cfg config, w workload, seed int64, seconds float64) *plan {
	p := &plan{cfg: cfg, w: w, seed: seed, initial: initialDB(cfg)}
	rng := rand.New(rand.NewSource(seed))

	nUpd := int(math.Round(w.updatesPerSec * seconds))
	if nUpd < 4 {
		nUpd = 4
	}
	p.warm = int(math.Round(warmShare * float64(nUpd)))
	nUpd += p.warm
	batchIns, batchDel := splitBatch(w.batch)
	inserts := batchIns * nUpd
	if w.batch == 1 {
		// One tuple per request: insert, insert, insert, delete.
		inserts = nUpd - nUpd/4
	}
	fresh := dataset.AntiCor(inserts, cfg.D, seed*7919+17).Points

	live := make([]int, len(p.initial))
	for i, pt := range p.initial {
		live[i] = pt.id
	}
	next := 0
	p.updates = make([]update, nUpd)
	for i := range p.updates {
		var u update
		ni, nd := batchIns, batchDel
		if w.batch == 1 {
			ni, nd = 1, 0
			if i%4 == 3 {
				ni, nd = 0, 1
			}
		}
		for j := 0; j < nd; j++ {
			k := rng.Intn(len(live))
			u.del = append(u.del, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for j := 0; j < ni; j++ {
			pt := point{id: freshBase + next, v: fresh[next].Coords}
			next++
			u.ins = append(u.ins, pt)
		}
		for _, pt := range u.ins {
			live = append(live, pt.id)
		}
		u.req = encodeUpdate(u)
		p.updates[i] = u
	}

	if w.readMostly {
		p.queries = make([]query, 4096)
		for i := range p.queries {
			kind := readTopK
			switch x := rng.Intn(10); {
			case x >= 8:
				kind = readResult
			case x >= 6:
				kind = readRegret
			}
			p.queries[i] = newQuery(kind, randUtility(rng, cfg.D), topK)
		}
	} else {
		p.queries = make([]query, nUpd)
		for i := range p.queries {
			p.queries[i] = newQuery(readTopK, randUtility(rng, cfg.D), topK)
		}
	}
	p.answerQ = newQuery(readResult, nil, 0)
	for i := 0; i < max(regretChecks, restartTopK); i++ {
		p.checkU = append(p.checkU, randUtility(rng, cfg.D))
	}
	// core.answer_mrr uses one fixed sample for every seed: the basis vectors
	// plus seeded directions on the positive orthant.
	mrng := rand.New(rand.NewSource(424242))
	for i := 0; i < cfg.D; i++ {
		u := make([]float64, cfg.D)
		u[i] = 1
		p.mrrU = append(p.mrrU, u)
	}
	for i := 0; i < mrrSamples; i++ {
		p.mrrU = append(p.mrrU, randUtility(mrng, cfg.D))
	}
	return p
}

// splitBatch returns the inserts and deletes of one batch of n tuples:
// three inserts per delete.
func splitBatch(n int) (ins, del int) {
	del = n / 4
	return n - del, del
}

// tuples returns how many tuples updates carry.
func tuples(updates []update) int {
	t := 0
	for _, u := range updates {
		t += len(u.ins) + len(u.del)
	}
	return t
}

// randUtility draws a direction uniformly from the positive orthant of the
// unit sphere.
func randUtility(rng *rand.Rand, d int) []float64 {
	u := make([]float64, d)
	for {
		s := 0.0
		for i := range u {
			u[i] = math.Abs(rng.NormFloat64())
			s += u[i] * u[i]
		}
		if s > 1e-12 {
			s = math.Sqrt(s)
			for i := range u {
				u[i] /= s
			}
			return u
		}
	}
}

func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func utilityParam(u []float64) string {
	parts := make([]string, len(u))
	for i, x := range u {
		parts[i] = formatFloat(x)
	}
	return strings.Join(parts, ",")
}

func newQuery(kind int, u []float64, k int) query {
	var path string
	switch kind {
	case readTopK:
		path = fmt.Sprintf("/topk?u=%s&k=%d", utilityParam(u), k)
	case readRegret:
		path = "/regret?u=" + utilityParam(u)
	default:
		path = "/result"
	}
	return query{kind: kind, u: u, req: encodeGet(path)}
}

func encodeGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: rmsserve\r\n\r\n")
}

// encodeUpdate renders the POST /update request; float64 values use the
// shortest round-trip form, so the server stores exactly the oracle's values.
func encodeUpdate(u update) []byte {
	var b strings.Builder
	b.WriteString(`{"insert":[`)
	for i, pt := range u.ins {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"id":`)
		b.WriteString(strconv.Itoa(pt.id))
		b.WriteString(`,"values":[`)
		for j, x := range pt.v {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(formatFloat(x))
		}
		b.WriteString("]}")
	}
	b.WriteString(`],"delete":[`)
	for i, id := range u.del {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	b.WriteString("]}")
	body := b.String()
	return []byte(fmt.Sprintf("POST /update HTTP/1.1\r\nHost: rmsserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}
