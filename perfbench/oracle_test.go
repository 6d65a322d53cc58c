package main

import (
	"math"
	"math/rand"
	"testing"

	"fdrms/internal/dataset"
	"fdrms/internal/geom"
	"fdrms/internal/regret"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// handOracle is three tuples whose scores can be worked out by hand.
func handOracle() *oracle {
	return newOracle(2, []point{
		{1, []float64{1, 0}},
		{2, []float64{0, 1}},
		{3, []float64{0.6, 0.6}},
	})
}

func TestOracleTopKByHand(t *testing.T) {
	o := handOracle()
	got := o.topK([]float64{1, 0}, 2)
	if len(got) != 2 || got[0] != (scored{1, 1}) || got[1] != (scored{3, 0.6}) {
		t.Fatalf("topK(1,0) = %v, want [{1 1} {3 0.6}]", got)
	}
	// u = (1,1): id 3 scores 1.2; ids 1 and 2 tie at 1, the smaller id first.
	got = o.topK([]float64{1, 1}, 3)
	if len(got) != 3 || got[0].id != 3 || got[1].id != 1 || got[2].id != 2 {
		t.Fatalf("topK(1,1) = %v, want ids 3, 1, 2", got)
	}
	if kth, ok := o.kthScore([]float64{1, 0}, 2); !ok || kth != 0.6 {
		t.Fatalf("kthScore = %v %v, want 0.6", kth, ok)
	}
	// Fewer live tuples than k: all of them.
	if got := o.topK([]float64{0, 1}, 10); len(got) != 3 {
		t.Fatalf("topK k=10 over 3 tuples returned %d", len(got))
	}

	o.remove(1)
	o.remove(99) // missing: no-op
	got = o.topK([]float64{1, 0}, 2)
	if o.len() != 2 || got[0].id != 3 || got[1].id != 2 {
		t.Fatalf("after delete: len %d topK %v, want ids 3, 2", o.len(), got)
	}
	o.insert(point{2, []float64{2, 0}}) // replaces the live tuple 2
	if v, ok := o.values(2); o.len() != 2 || !ok || v[0] != 2 {
		t.Fatalf("after replace: len %d values %v", o.len(), v)
	}
}

func TestOracleRegretByHand(t *testing.T) {
	o := handOracle()
	q := [][]float64{{0, 1}}
	if r := o.regretRatio([]float64{1, 0}, 1, q); r != 1 {
		t.Fatalf("rr(1,0) = %v, want 1: Q scores 0 against a best of 1", r)
	}
	s := 1 / math.Sqrt2
	// ω_1 = 1.2/√2 (tuple 3), Q's best 1/√2: 1 - 1/1.2.
	if r := o.regretRatio([]float64{s, s}, 1, q); !near(r, 1-1/1.2) {
		t.Fatalf("rr(1,1)/√2 = %v, want %v", r, 1-1/1.2)
	}
	// k = 2 under (1,1): ω_2 = 1, and Q's best is 1, so no regret.
	if r := o.regretRatio([]float64{1, 1}, 2, q); r != 0 {
		t.Fatalf("rr_2(1,1) = %v, want 0", r)
	}
	if r := o.regretRatio([]float64{1, 0}, 1, nil); r != 1 {
		t.Fatalf("empty answer: rr = %v, want 1", r)
	}
	if r := newOracle(2, nil).regretRatio([]float64{1, 0}, 1, q); r != 0 {
		t.Fatalf("empty database: rr = %v, want 0", r)
	}
	// mrr over the two axes with Q = {tuple 3}: 1 - 0.6 on each.
	us := [][]float64{{1, 0}, {0, 1}}
	if m := newKthTracker(o, us, 1).mrr([][]float64{{0.6, 0.6}}); !near(m, 0.4) {
		t.Fatalf("mrr = %v, want 0.4", m)
	}
}

// TestOracleAgreesWithRegretPackage checks the oracle against the
// independent implementation in internal/regret on a small database.
func TestOracleAgreesWithRegretPackage(t *testing.T) {
	const d, n = 4, 600
	ds := dataset.AntiCor(n, d, 5)
	pts := make([]point, n)
	for i, p := range ds.Points {
		pts[i] = point{p.ID, p.Coords}
	}
	o := newOracle(d, pts)
	Q := ds.Points[:12]
	q := make([][]float64, len(Q))
	for i, p := range Q {
		q[i] = p.Coords
	}
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 3} {
		for i := 0; i < 200; i++ {
			u := randUtility(rng, d)
			want := regret.RatioForUtility(geom.Vector(u), ds.Points, Q, k)
			if got := o.regretRatio(u, k, q); !near(got, want) {
				t.Fatalf("k=%d u=%v: oracle %v, regret.RatioForUtility %v", k, u, got, want)
			}
		}

		// Evaluator.MRR samples the d basis vectors, then NewUnitSampler.
		const samples, seed = 300, 11
		ev := regret.NewEvaluator(ds.Points, d, k, samples, seed)
		var us [][]float64
		for j := 0; j < d; j++ {
			us = append(us, geom.Basis(d, j))
		}
		for _, v := range geom.NewUnitSampler(d, seed).SampleN(samples) {
			us = append(us, v)
		}
		if got, want := newKthTracker(o, us, k).mrr(q), ev.MRR(Q); !near(got, want) {
			t.Fatalf("k=%d: oracle mrr %v, Evaluator.MRR %v", k, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles([1 2]) = %v %v %v", q1, q2, q3)
	}
}

// TestKthTrackerFollowsUpdates applies a seeded stream to a tracker and
// compares it with one built from scratch on the resulting live set.
func TestKthTrackerFollowsUpdates(t *testing.T) {
	cfg := smokeConfig()
	w, err := workloadByName("ingest-bulk")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(cfg, w, 9, 0.2)
	for _, k := range []int{1, 3} {
		o := newOracle(cfg.D, p.initial)
		tr := newKthTracker(o, p.mrrU, k)
		for _, u := range p.updates {
			o.apply(u)
			tr.apply(u)
		}
		fresh := newKthTracker(o, p.mrrU, k)
		for i := range p.mrrU {
			a, b := tr.top[i], fresh.top[i]
			if len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
				t.Fatalf("k=%d vector %d: tracked %v, rescanned %v", k, i, a, b)
			}
		}
	}
}
