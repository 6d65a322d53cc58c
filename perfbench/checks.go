package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// checkFailure names the first wrong answer of a run.
type checkFailure struct {
	workload, check string
	generation      uint64
	request         string
	detail          string
}

func (f *checkFailure) Error() string {
	return fmt.Sprintf("check failed: workload=%s check=%s generation=%d request=%s: %s",
		f.workload, f.check, f.generation, f.request, f.detail)
}

type topkResp struct {
	Generation uint64 `json:"generation"`
	TopK       []struct {
		ID     int       `json:"id"`
		Values []float64 `json:"values"`
		Score  float64   `json:"score"`
	} `json:"topk"`
}

type updateResp struct {
	Generation uint64 `json:"generation"`
	N          int    `json:"n"`
}

type resultResp struct {
	Generation uint64 `json:"generation"`
	Result     []struct {
		ID     int       `json:"id"`
		Values []float64 `json:"values"`
	} `json:"result"`
}

// sameFloat allows for a different summation order in a score.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkTopK compares one /topk answer with the oracle's brute force over
// the same live set: the same ranked scores, each tuple live with the
// values it was given and the score it is reported with.
func checkTopK(o *oracle, u []float64, k int, body []byte) (uint64, string) {
	var resp topkResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Sprintf("undecodable response: %v", err)
	}
	want := o.topK(u, k)
	if len(resp.TopK) != len(want) {
		return resp.Generation, fmt.Sprintf("%d results, oracle has %d", len(resp.TopK), len(want))
	}
	for i, t := range resp.TopK {
		if !sameFloat(t.Score, want[i].score) {
			return resp.Generation, fmt.Sprintf("rank %d: score %v (id %d), oracle %v (id %d)", i, t.Score, t.ID, want[i].score, want[i].id)
		}
		v, ok := o.values(t.ID)
		if !ok {
			return resp.Generation, fmt.Sprintf("rank %d: id %d is not live", i, t.ID)
		}
		if !sameValues(v, t.Values) || !sameFloat(dot(u, v), t.Score) {
			return resp.Generation, fmt.Sprintf("rank %d: id %d reported as %v score %v, live values %v", i, t.ID, t.Values, t.Score, v)
		}
	}
	return resp.Generation, ""
}

// checkResult checks that an answer has at most r tuples, all live with
// identical values.
func checkResult(o *oracle, r int, res []point) string {
	if len(res) > r {
		return fmt.Sprintf("%d tuples, r = %d", len(res), r)
	}
	for _, t := range res {
		v, ok := o.values(t.id)
		if !ok {
			return fmt.Sprintf("id %d is not live", t.id)
		}
		if !sameValues(v, t.v) {
			return fmt.Sprintf("id %d reported as %v, live values %v", t.id, t.v, v)
		}
	}
	return ""
}

func sameState(a, b state) string {
	if a.n != b.n {
		return fmt.Sprintf("n %d vs %d", a.n, b.n)
	}
	if len(a.result) != len(b.result) {
		return fmt.Sprintf("|result| %d vs %d", len(a.result), len(b.result))
	}
	for i := range a.result {
		if a.result[i].id != b.result[i].id || !sameValues(a.result[i].v, b.result[i].v) {
			return fmt.Sprintf("result[%d]: id %d %v vs id %d %v", i, a.result[i].id, a.result[i].v, b.result[i].id, b.result[i].v)
		}
	}
	return ""
}

func values(ps []point) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = p.v
	}
	return out
}

// check verifies every output of the run against the oracle, replaying
// the op log generation by generation. It returns the first failure, and
// answer_mrr: the mean, over the answers sampled during the run and the
// final one, of each answer's maximum k-regret ratio over the plan's fixed
// utility sample, against the live set of the answer's own generation.
func (r *httpRun) check() (float64, *checkFailure) {
	p := r.p
	fail := func(check string, gen uint64, req, format string, args ...any) *checkFailure {
		return &checkFailure{workload: p.w.name, check: check, generation: gen, request: req, detail: fmt.Sprintf(format, args...)}
	}

	// Each update's response: status, the generation it published, and n.
	gens := make([]uint64, len(p.updates))
	updResp := make([]updateResp, len(p.updates))
	prev := r.gen0
	for i, body := range r.updBody {
		req := fmt.Sprintf("update #%d", i)
		if !r.updOK[i] {
			continue
		}
		if err := json.Unmarshal(body, &updResp[i]); err != nil {
			return 0, fail("update-response", 0, req, "undecodable response %q: %v", body, err)
		}
		gens[i] = updResp[i].Generation
		if gens[i] <= prev {
			return 0, fail("update-generation", gens[i], req, "generation %d does not follow %d", gens[i], prev)
		}
		prev = gens[i]
	}

	// Sampled reads, in generation order.
	type pending struct {
		s   sample
		gen uint64
		cnt int // updates applied at gen
	}
	var reads []pending
	for _, s := range r.samples {
		var g struct {
			Generation uint64 `json:"generation"`
		}
		req := fmt.Sprintf("%s #%d", readNames[s.q.kind], s.idx)
		if err := json.Unmarshal(s.body, &g); err != nil {
			return 0, fail("read-response", 0, req, "undecodable response: %v", err)
		}
		cnt := sort.Search(len(gens), func(i int) bool { return gens[i] > g.Generation })
		if g.Generation < r.gen0 || (cnt > 0 && gens[cnt-1] != g.Generation) || (cnt == 0 && g.Generation != r.gen0) {
			return 0, fail("read-generation", g.Generation, req, "no update published generation %d", g.Generation)
		}
		reads = append(reads, pending{s, g.Generation, cnt})
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].cnt < reads[j].cnt })

	o := newOracle(p.cfg.D, p.initial)
	kth := newKthTracker(o, p.mrrU, regretK)
	var mrrs []float64
	next := 0
	for c := 0; c <= len(p.updates); c++ {
		for ; next < len(reads) && reads[next].cnt == c; next++ {
			rd := reads[next]
			req := fmt.Sprintf("%s #%d", readNames[rd.s.q.kind], rd.s.idx)
			switch rd.s.q.kind {
			case readTopK:
				if _, msg := checkTopK(o, rd.s.q.u, topK, rd.s.body); msg != "" {
					return 0, fail("topk-vs-oracle", rd.gen, req, "%s", msg)
				}
			case readResult:
				var res resultResp
				if err := json.Unmarshal(rd.s.body, &res); err != nil {
					return 0, fail("result-response", rd.gen, req, "%v", err)
				}
				pts := make([]point, len(res.Result))
				for i, t := range res.Result {
					pts[i] = point{t.ID, t.Values}
				}
				if msg := checkResult(o, p.cfg.R, pts); msg != "" {
					return 0, fail("result-live", rd.gen, req, "%s", msg)
				}
				mrrs = append(mrrs, kth.mrr(values(pts)))
			}
		}
		if c == len(p.updates) {
			break
		}
		o.apply(p.updates[c])
		kth.apply(p.updates[c])
		if r.updOK[c] && updResp[c].N != o.len() {
			return 0, fail("update-n", gens[c], fmt.Sprintf("update #%d", c), "n = %d, oracle has %d", updResp[c].N, o.len())
		}
	}

	// Quiescent point: the final answer and the sampled regret ratios.
	fin := r.final
	if fin.n != o.len() {
		return 0, fail("final-n", fin.gen, "GET /stats", "n = %d, oracle has %d", fin.n, o.len())
	}
	if msg := checkResult(o, p.cfg.R, fin.result); msg != "" {
		return 0, fail("result-live", fin.gen, "GET /result", "%s", msg)
	}
	q := values(fin.result)
	mrrs = append(mrrs, kth.mrr(q))
	for i, got := range r.regretResp {
		req := fmt.Sprintf("quiescent /regret #%d", i)
		if r.regretGen[i] != fin.gen {
			return 0, fail("regret-generation", r.regretGen[i], req, "store moved from generation %d while quiescent", fin.gen)
		}
		if want := o.regretRatio(p.checkU[i], regretK, q); !sameFloat(got, want) {
			return 0, fail("regret-vs-oracle", fin.gen, req, "regret_ratio %v, oracle %v", got, want)
		}
	}

	// The caught-up follower serves the primary's answer and n.
	if msg := sameState(r.follower, fin); msg != "" || r.follower.appliedSeq != fin.appliedSeq {
		return 0, fail("follower-equal", r.follower.gen, "follower GET /result", "at applied_seq %d vs %d: %s", r.follower.appliedSeq, fin.appliedSeq, msg)
	}

	// The restarted primary serves the pre-kill answer and n, and its
	// top-k still matches the oracle.
	if msg := sameState(r.restarted, fin); msg != "" {
		return 0, fail("restart-equal", r.restarted.gen, "restarted GET /result", "%s", msg)
	}
	for i, body := range r.restartTop {
		if gen, msg := checkTopK(o, p.checkU[i], topK, body); msg != "" {
			return 0, fail("restart-topk-vs-oracle", gen, fmt.Sprintf("restarted /topk #%d", i), "%s", msg)
		}
	}

	sum := 0.0
	for _, m := range mrrs {
		sum += m
	}
	return sum / float64(len(mrrs)), nil
}
