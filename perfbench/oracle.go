package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// oracle is the benchmark's own copy of the live set, kept apart from the
// program: brute-force top-k, k-regret ratio and maximum k-regret ratio over
// a flat array of tuples.
type oracle struct {
	d    int
	ids  []int
	vals []float64 // row i is vals[i*d : (i+1)*d]
	pos  map[int]int
}

func newOracle(d int, pts []point) *oracle {
	o := &oracle{d: d, pos: make(map[int]int, len(pts))}
	for _, p := range pts {
		o.insert(p)
	}
	return o
}

func (o *oracle) len() int { return len(o.ids) }

func (o *oracle) row(i int) []float64 { return o.vals[i*o.d : (i+1)*o.d] }

// insert adds p, replacing a live tuple with the same id.
func (o *oracle) insert(p point) {
	if i, ok := o.pos[p.id]; ok {
		copy(o.row(i), p.v)
		return
	}
	o.pos[p.id] = len(o.ids)
	o.ids = append(o.ids, p.id)
	o.vals = append(o.vals, p.v...)
}

// remove deletes id; a missing id is a no-op, as in rmsserve.
func (o *oracle) remove(id int) {
	i, ok := o.pos[id]
	if !ok {
		return
	}
	last := len(o.ids) - 1
	if i != last {
		o.ids[i] = o.ids[last]
		copy(o.row(i), o.row(last))
		o.pos[o.ids[i]] = i
	}
	o.ids = o.ids[:last]
	o.vals = o.vals[:last*o.d]
	delete(o.pos, id)
}

// apply replays one POST /update: inserts first, then deletes.
func (o *oracle) apply(u update) {
	for _, p := range u.ins {
		o.insert(p)
	}
	for _, id := range u.del {
		o.remove(id)
	}
}

// values returns the live values of id.
func (o *oracle) values(id int) ([]float64, bool) {
	i, ok := o.pos[id]
	if !ok {
		return nil, false
	}
	return o.row(i), true
}

func dot(u, v []float64) float64 {
	s := 0.0
	for j, x := range u {
		s += x * v[j]
	}
	return s
}

type scored struct {
	id    int
	score float64
}

// less orders by decreasing score, ties to the smaller id.
func (a scored) less(b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// topK returns the k best live tuples under u in decreasing score order,
// ties to the smaller id.
func (o *oracle) topK(u []float64, k int) []scored {
	top := make([]scored, 0, k+1)
	for i, id := range o.ids {
		s := scored{id, dot(u, o.row(i))}
		if len(top) == k && !s.less(top[k-1]) {
			continue
		}
		j := sort.Search(len(top), func(j int) bool { return s.less(top[j]) })
		top = append(top, scored{})
		copy(top[j+1:], top[j:])
		top[j] = s
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// kthScore returns ω_k(u, P), the k-th best score (the last one when fewer
// than k tuples are live), and false on an empty set.
func (o *oracle) kthScore(u []float64, k int) (float64, bool) {
	top := o.topK(u, k)
	if len(top) == 0 {
		return 0, false
	}
	return top[len(top)-1].score, true
}

// regretRatio is rr_k(u, Q) = max(0, 1 − max_{q∈Q} u·q / ω_k(u, P)), with
// the conventions of the paper's evaluation: 0 when ω_k ≤ 0 or P is empty,
// 1 when Q is empty.
func regretRatio(u []float64, kth float64, haveKth bool, q [][]float64) float64 {
	if !haveKth || kth <= 0 {
		return 0
	}
	if len(q) == 0 {
		return 1
	}
	best := dot(u, q[0])
	for _, v := range q[1:] {
		if s := dot(u, v); s > best {
			best = s
		}
	}
	if r := 1 - best/kth; r > 0 {
		return r
	}
	return 0
}

func (o *oracle) regretRatio(u []float64, k int, q [][]float64) float64 {
	kth, ok := o.kthScore(u, k)
	return regretRatio(u, kth, ok, q)
}

// kthTracker keeps ω_k(u, P) of a fixed set of utility vectors current as
// the oracle replays updates, so every answer sampled during a run can be
// scored against the live set of its own generation without a full scan.
type kthTracker struct {
	o   *oracle
	us  [][]float64
	k   int
	top [][]scored // per vector: its k best live tuples, descending
}

func newKthTracker(o *oracle, us [][]float64, k int) *kthTracker {
	t := &kthTracker{o: o, us: us, k: k, top: make([][]scored, len(us))}
	t.parallel(func(i int) { t.top[i] = o.topK(us[i], k) })
	return t
}

// parallel runs f over every vector index, split across GOMAXPROCS
// workers.
func (t *kthTracker) parallel(f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(t.us)/workers, (w+1)*len(t.us)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// apply brings the tracker to the oracle's state after u. The oracle must
// already have applied u. Inserted ids are fresh, as in every plan.
func (t *kthTracker) apply(u update) {
	t.parallel(func(i int) {
		top := t.top[i]
		for _, p := range u.ins {
			s := scored{p.id, dot(t.us[i], p.v)}
			if len(top) == t.k && !s.less(top[t.k-1]) {
				continue
			}
			j := sort.Search(len(top), func(j int) bool { return s.less(top[j]) })
			top = append(top, scored{})
			copy(top[j+1:], top[j:])
			top[j] = s
			if len(top) > t.k {
				top = top[:t.k]
			}
		}
		for _, id := range u.del {
			for _, s := range top {
				if s.id == id {
					// A top tuple left: rescan the live set for this vector.
					top = t.o.topK(t.us[i], t.k)
					break
				}
			}
		}
		t.top[i] = top
	})
}

// mrr is the maximum k-regret ratio of answer q over the tracked vectors.
func (t *kthTracker) mrr(q [][]float64) float64 {
	worst := 0.0
	for i, u := range t.us {
		top := t.top[i]
		if len(top) == 0 {
			continue
		}
		worst = math.Max(worst, regretRatio(u, top[len(top)-1].score, true, q))
	}
	return worst
}
