package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one response kept for the checks made after the clock stops.
type sample struct {
	idx  int // index of the request in its load loop
	q    *query
	body []byte
}

// kindCount is the attempted and failed requests of one request kind.
type kindCount struct{ attempted, failed int }

// httpRun is one run of a workload against real rmsserve processes.
type httpRun struct {
	p       *plan
	seconds float64
	bin     string
	dir     string
	walDir  string // the serving primary's WAL directory
	trace   bool
	log     func(format string, args ...any)

	primary *proc

	setups []time.Duration

	// Load phase.
	updLat  []time.Duration
	updBody [][]byte
	updOK   []bool
	topkLat []time.Duration
	samples []sample // sampled /topk and /result responses
	counts  map[string]*kindCount
	elapsed time.Duration // the timed part of the load phase, after the warm-up
	// The latencies of the timed part: suffixes of updLat and topkLat.
	timedUpd   []time.Duration
	timedTopk  []time.Duration
	timedReads int // GETs of the timed part that answered 200
	lateMax    time.Duration
	lateP99    time.Duration
	cpu        time.Duration
	rssMiB     float64
	walBytes   float64
	gen0       uint64
	before     map[string]float64 // primary /metrics before and after the load phase
	after      map[string]float64
	scrapes    []namedScrape // traced run: every /metrics scrape, kept for the trace directory

	// Quiescent state after the load phase.
	final      state
	regretResp []float64
	regretGen  []uint64

	catchups   []time.Duration
	follower   state
	recoveries []time.Duration
	restarted  state
	restartTop [][]byte
}

type namedScrape struct {
	name string
	body []byte
}

// scrape reads p's /metrics; a traced run keeps the text under name.
func (r *httpRun) scrape(p *proc, name string) (map[string]float64, error) {
	body, err := p.metricsText()
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", name, err)
	}
	if r.trace {
		r.scrapes = append(r.scrapes, namedScrape{name, body})
	}
	return parseMetrics(body), nil
}

// state is what /result, /stats and /healthz say at one instant.
type state struct {
	gen        uint64
	appliedSeq uint64
	n          int
	result     []point
}

func (r *httpRun) count(kind string, ok bool) {
	c := r.counts[kind]
	if c == nil {
		c = &kindCount{}
		r.counts[kind] = c
	}
	c.attempted++
	if !ok {
		c.failed++
	}
}

// readsDone is the number of GETs of the load phase that answered 200.
func (r *httpRun) readsDone() int {
	n := 0
	for _, kind := range readNames {
		if c := r.counts[kind]; c != nil {
			n += c.attempted - c.failed
		}
	}
	return n
}

func (r *httpRun) primaryArgs(dir string) []string {
	c := r.p.cfg
	args := []string{
		"-wal-dir", dir,
		"-n", strconv.Itoa(c.N), "-d", strconv.Itoa(c.D),
		"-k", strconv.Itoa(regretK), "-r", strconv.Itoa(c.R), "-m", strconv.Itoa(c.M),
		"-seed", strconv.Itoa(serverSeed),
	}
	if c.CkptOps > 0 {
		args = append(args, "-ckpt-ops", strconv.Itoa(c.CkptOps))
	}
	return args
}

const readyTimeout = 150 * time.Second

// readerThink is the read-mostly reader's pause between reads. Without it
// one closed-loop reader saturates a 2-CPU box, and every latency then
// measures queueing behind it.
const readerThink = time.Millisecond

// answerProbes is how many times an ingest run fetches /result between
// updates, at evenly spaced points.
const answerProbes = 128

// run executes the five phases. Every process it starts is stopped before
// it returns.
func (r *httpRun) run() error {
	defer stopAll()
	r.counts = map[string]*kindCount{}
	logPath := filepath.Join(r.dir, "rmsserve.log")

	// 1. Setup: the primary on a fresh directory, starts times; the last one
	// serves the run.
	walDir := ""
	for i := 0; i < starts; i++ {
		walDir = filepath.Join(r.dir, fmt.Sprintf("primary-%d", i))
		pr, err := startServer(r.bin, r.primaryArgs(walDir), logPath)
		if err != nil {
			return err
		}
		d, err := pr.waitReady(readyTimeout)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, d)
		if i < starts-1 {
			pr.stop(syscall.SIGKILL)
			if err := os.RemoveAll(walDir); err != nil {
				return err
			}
			continue
		}
		r.primary = pr
	}
	r.walDir = walDir
	r.log("setup: %v", r.setups)

	// 2. Load phase.
	st, err := fetchState(r.primary.addr)
	if err != nil {
		return err
	}
	r.gen0 = st.gen
	if r.before, err = r.scrape(r.primary, "primary-before-load"); err != nil {
		return err
	}
	cpu0, err := r.primary.cpuTime()
	if err != nil {
		return err
	}
	// The load generator's own garbage collector stays off while the clock
	// runs, so it takes no CPU from the server in the timed loop.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	if r.p.w.readMostly {
		err = r.loadReadMostly()
	} else {
		err = r.loadIngest()
	}
	debug.SetGCPercent(gc)
	if err != nil {
		return fmt.Errorf("load phase: %w", err)
	}
	cpu1, err := r.primary.cpuTime()
	if err != nil {
		return err
	}
	r.cpu = cpu1 - cpu0
	if r.rssMiB, err = r.primary.peakRSS(); err != nil {
		return err
	}
	if r.after, err = r.scrape(r.primary, "primary-after-load"); err != nil {
		return err
	}
	r.walBytes = r.after["fdrms_wal_appended_bytes_total"] - r.before["fdrms_wal_appended_bytes_total"]
	r.log("load: %d updates, %d reads; after a warm-up of %d updates, %d updates and %d reads in %v",
		len(r.updLat), r.readsDone(), r.p.warm, len(r.timedUpd), r.timedReads, r.elapsed)

	// Quiescent point: the answer and the regret of sampled users.
	if r.final, err = fetchState(r.primary.addr); err != nil {
		return err
	}
	for _, u := range r.p.checkU[:regretChecks] {
		code, body, err := fetch(r.primary.addr, "/regret?u="+utilityParam(u))
		r.count("check", err == nil && code == 200)
		if err != nil || code != 200 {
			return fmt.Errorf("quiescent /regret: %d %s %v", code, body, err)
		}
		var resp struct {
			Generation  uint64  `json:"generation"`
			RegretRatio float64 `json:"regret_ratio"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("quiescent /regret: %w", err)
		}
		r.regretResp = append(r.regretResp, resp.RegretRatio)
		r.regretGen = append(r.regretGen, resp.Generation)
	}

	// 3. Follower phase: bootstrap from the primary's directory and replay
	// its WAL tail until the applied seq matches, starts times.
	want := r.final.appliedSeq
	for i := 0; i < starts; i++ {
		fol, err := startServer(r.bin, []string{"-follow", walDir, "-poll", "5ms"}, logPath)
		if err != nil {
			return err
		}
		d, err := fol.waitFor("/healthz", readyTimeout, func(code int, body []byte) bool {
			var h struct {
				AppliedSeq uint64 `json:"applied_seq"`
			}
			return code == 200 && json.Unmarshal(body, &h) == nil && h.AppliedSeq == want
		})
		if err != nil {
			return fmt.Errorf("follower phase: %w", err)
		}
		r.catchups = append(r.catchups, d)
		if i == starts-1 {
			if r.follower, err = fetchState(fol.addr); err != nil {
				return err
			}
			if r.trace {
				if _, err := r.scrape(fol, "follower-caught-up"); err != nil {
					return err
				}
			}
		}
		fol.stop(syscall.SIGTERM)
	}
	r.log("follower: caught up to seq %d in %v", want, r.catchups)

	// 4. Restart phase: SIGKILL the primary and recover it on its
	// directory, starts times.
	for i := 0; i < starts; i++ {
		r.primary.stop(syscall.SIGKILL)
		pr, err := startServer(r.bin, r.primaryArgs(walDir), logPath)
		if err != nil {
			return err
		}
		r.primary = pr
		d, err := pr.waitReady(readyTimeout)
		if err != nil {
			return fmt.Errorf("restart phase: %w", err)
		}
		r.recoveries = append(r.recoveries, d)
	}
	if r.restarted, err = fetchState(r.primary.addr); err != nil {
		return err
	}
	if r.trace {
		if _, err := r.scrape(r.primary, "primary-after-restart"); err != nil {
			return err
		}
	}
	for _, u := range r.p.checkU[:restartTopK] {
		code, body, err := fetch(r.primary.addr, fmt.Sprintf("/topk?u=%s&k=%d", utilityParam(u), topK))
		r.count("check", err == nil && code == 200)
		if err != nil || code != 200 {
			return fmt.Errorf("restart /topk: %d %s %v", code, body, err)
		}
		r.restartTop = append(r.restartTop, body)
	}
	r.primary.stop(syscall.SIGTERM)
	r.log("restart: recovered in %v", r.recoveries)
	return nil
}

// loadIngest is the closed loop of both ingest workloads: one connection,
// each update followed by one /topk.
func (r *httpRun) loadIngest() error {
	p := r.p
	c, err := dial(r.primary.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	n := len(p.updates)
	r.updLat = make([]time.Duration, n)
	r.updBody = make([][]byte, n)
	r.updOK = make([]bool, n)
	r.topkLat = make([]time.Duration, 0, n)
	answerEvery := max(1, n/answerProbes)
	start, topkWarm, readsWarm := time.Now(), 0, 0
	for i := range p.updates {
		if i == p.warm {
			start, topkWarm, readsWarm = time.Now(), len(r.topkLat), r.readsDone()
		}
		t0 := time.Now()
		code, body, err := c.do(p.updates[i].req)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("update #%d: %w", i, err)
		}
		r.updLat[i] = t1.Sub(t0)
		r.updOK[i] = code == 200
		r.count("update", r.updOK[i])
		r.updBody[i] = append([]byte(nil), body...)

		q := &p.queries[i]
		t0 = time.Now()
		code, body, err = c.do(q.req)
		t1 = time.Now()
		if err != nil {
			return fmt.Errorf("topk #%d: %w", i, err)
		}
		r.count("topk", code == 200)
		if code == 200 {
			r.topkLat = append(r.topkLat, t1.Sub(t0))
			if i%p.w.checkEvery == 0 {
				r.samples = append(r.samples, sample{idx: i, q: q, body: append([]byte(nil), body...)})
			}
		}

		// answerProbes times a run, the answer itself, for answer_mrr.
		if (i+1)%answerEvery == 0 {
			q := &p.answerQ
			code, body, err = c.do(q.req)
			if err != nil {
				return fmt.Errorf("result after update #%d: %w", i, err)
			}
			r.count("result", code == 200)
			if code == 200 {
				r.samples = append(r.samples, sample{idx: i, q: q, body: append([]byte(nil), body...)})
			}
		}
	}
	r.elapsed = time.Since(start)
	r.timedUpd, r.timedTopk = r.updLat[p.warm:], r.topkLat[topkWarm:]
	r.timedReads = r.readsDone() - readsWarm
	return nil
}

// loadReadMostly runs one closed-loop reader beside one open-loop writer.
// Writes are timed from their due time; the reader runs until the writer's
// schedule is done.
func (r *httpRun) loadReadMostly() error {
	p := r.p
	wc, err := dial(r.primary.addr)
	if err != nil {
		return err
	}
	defer wc.Close()
	rc, err := dial(r.primary.addr)
	if err != nil {
		return err
	}
	defer rc.Close()

	n := len(p.updates)
	r.updLat = make([]time.Duration, n)
	r.updBody = make([][]byte, n)
	r.updOK = make([]bool, n)
	late := make([]time.Duration, n)
	interval := time.Duration(float64(time.Second) / p.w.updatesPerSec)
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	var werr error
	var wcounts []bool

	start := time.Now()
	timedFrom := start.Add(time.Duration(p.warm) * interval) // the first timed update's due time
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := range p.updates {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			t0 := time.Now()
			code, body, err := wc.do(p.updates[i].req)
			t1 := time.Now()
			late[i] = t0.Sub(due)
			r.updLat[i] = t1.Sub(due)
			r.updOK[i] = err == nil && code == 200
			wcounts = append(wcounts, r.updOK[i])
			if err != nil {
				werr = err
				return
			}
			r.updBody[i] = append([]byte(nil), body...)
		}
	}()

	var rerr error
	for j := 0; !writerDone.Load(); j++ {
		if j > 0 {
			time.Sleep(readerThink)
		}
		q := &p.queries[j%len(p.queries)]
		t0 := time.Now()
		code, body, err := rc.do(q.req)
		t1 := time.Now()
		if err != nil {
			rerr = fmt.Errorf("%s #%d: %w", readNames[q.kind], j, err)
			break
		}
		r.count(readNames[q.kind], code == 200)
		if code != 200 {
			continue
		}
		timed := !t0.Before(timedFrom)
		if timed {
			r.timedReads++
		}
		if q.kind == readTopK {
			r.topkLat = append(r.topkLat, t1.Sub(t0))
			if timed {
				r.timedTopk = append(r.timedTopk, t1.Sub(t0))
			}
		}
		if q.kind != readRegret && j%p.w.checkEvery == 0 {
			r.samples = append(r.samples, sample{idx: j, q: q, body: append([]byte(nil), body...)})
		}
	}
	wg.Wait()
	r.elapsed = time.Since(timedFrom)
	for _, ok := range wcounts {
		r.count("update", ok)
	}
	r.timedUpd = r.updLat[p.warm:]
	r.lateP99, r.lateMax = durQuantile(late[p.warm:], 0.99), durQuantile(late[p.warm:], 1)
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	return rerr
}

// fetchState reads /result, /stats and /healthz. It fails if the three do
// not agree on one generation (the caller fetches at quiescent points).
func fetchState(addr string) (state, error) {
	var st state
	var res struct {
		Generation uint64 `json:"generation"`
		Result     []struct {
			ID     int       `json:"id"`
			Values []float64 `json:"values"`
		} `json:"result"`
	}
	var stats struct {
		Generation uint64 `json:"generation"`
		N          int    `json:"n"`
	}
	var health struct {
		Generation uint64 `json:"generation"`
		AppliedSeq uint64 `json:"applied_seq"`
	}
	for _, f := range []struct {
		path string
		v    any
	}{{"/result", &res}, {"/stats", &stats}, {"/healthz", &health}} {
		code, body, err := fetch(addr, f.path)
		if err != nil {
			return st, fmt.Errorf("GET %s: %w", f.path, err)
		}
		if code != 200 {
			return st, fmt.Errorf("GET %s: %d %s", f.path, code, body)
		}
		if err := json.Unmarshal(body, f.v); err != nil {
			return st, fmt.Errorf("GET %s: %w", f.path, err)
		}
	}
	if res.Generation != stats.Generation || res.Generation != health.Generation {
		return st, fmt.Errorf("generation moved while quiescent: /result %d, /stats %d, /healthz %d",
			res.Generation, stats.Generation, health.Generation)
	}
	st.gen, st.n, st.appliedSeq = res.Generation, stats.N, health.AppliedSeq
	for _, t := range res.Result {
		st.result = append(st.result, point{id: t.ID, v: t.Values})
	}
	return st, nil
}
