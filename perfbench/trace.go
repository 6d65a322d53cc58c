package main

// The traced run's in-process replays. Each replay runs in a fresh process
// (this binary, re-executed with replayEnv set), rebuilds the workload's op
// stream and queries from the seed, and calls one layer's public entry
// point once per request, recording a span around every call. Self time of
// a layer is the difference between two replays that stop at adjacent layer
// boundaries: core.FDRMS < rms.Dynamic < rms.Store, with wal.Log beside the
// store and rms.DurableStore on top.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"fdrms/internal/core"
	"fdrms/internal/geom"
	"fdrms/internal/obs"
	"fdrms/internal/setcover"
	"fdrms/internal/topk"
	"fdrms/internal/tune"
	"fdrms/internal/wal"
	"fdrms/rms"
)

const replayEnv = "PERFBENCH_REPLAY"

// replaySpec tells a replay process what to replay.
type replaySpec struct {
	Layer    string
	Workload string
	Seed     int64
	Seconds  float64
	Cfg      config
	Dir      string // WAL directory: fresh for wal and durable, the run's for recover and replica
	Spans    string // where to write the spans, one JSON object a line
}

// replayOut is what a replay process reports on its last line.
type replayOut struct {
	Calls      int
	WallNs     int64            // the whole replay loop
	SpanNs     int64            // sum of the per-call spans
	P50Ns      int64            // per-call median
	AllocBytes uint64           // heap bytes allocated during the loop
	GCCPUNs    float64          // GC CPU during the loop
	Phases     map[string]int64 // core: topk phase clock totals
	Extra      map[string]float64
}

// span is one call into a layer. Start and End are nanoseconds since the
// replay process started its clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// call records a request span and, inside it, the span of the layer call.
func (t *tracer) call(req int, layer, name string, f func()) time.Duration {
	root := len(t.spans) + 1
	start := t.now()
	t.spans = append(t.spans, span{ID: root, Layer: "replay", Name: "request", Req: req, Start: start})
	cs := t.now()
	f()
	ce := t.now()
	t.spans = append(t.spans, span{ID: root + 1, Parent: root, Layer: layer, Name: name, Req: req, Start: cs, End: ce})
	t.spans[root-1].End = t.now()
	return time.Duration(ce - cs)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (alloc uint64, gcCPU float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64()
}

func rmsOptions(c config) rms.Options {
	return rms.Options{K: regretK, R: c.R, MaxUtilities: c.M, Seed: serverSeed}
}

func durableOptions(c config) rms.DurableOptions {
	ck := c.CkptOps
	if ck == 0 {
		ck = 50000 // rmsserve's -ckpt-ops default
	}
	return rms.DurableOptions{SyncEveryBatch: true, CheckpointEveryOps: ck, RetainSegments: 2}
}

func rmsPoints(ps []point) []rms.Point {
	out := make([]rms.Point, len(ps))
	for i, p := range ps {
		out[i] = rms.Point{ID: p.id, Values: p.v}
	}
	return out
}

// batch is an update as rmsserve hands it to the store: inserts, then
// deletes.
func (u update) batch() []rms.Update {
	b := make([]rms.Update, 0, len(u.ins)+len(u.del))
	for _, p := range u.ins {
		b = append(b, rms.Ins(rms.Point{ID: p.id, Values: p.v}))
	}
	for _, id := range u.del {
		b = append(b, rms.Del(id))
	}
	return b
}

func (u update) ops() []topk.Op {
	o := make([]topk.Op, 0, len(u.ins)+len(u.del))
	for _, p := range u.ins {
		o = append(o, topk.InsertOp(geom.Point{ID: p.id, Coords: p.v}))
	}
	for _, id := range u.del {
		o = append(o, topk.DeleteOp(id))
	}
	return o
}

// replayMain is the entry point of a replay process.
func replayMain(specJSON string) int {
	var spec replaySpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench replay:", err)
		return 1
	}
	out, err := replay(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench replay %s: %v\n", spec.Layer, err)
		return 1
	}
	b, _ := json.Marshal(out) // numbers and maps of numbers always encode
	fmt.Println(string(b))
	return 0
}

func replay(spec replaySpec) (*replayOut, error) {
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	p := makePlan(spec.Cfg, w, spec.Seed, spec.Seconds)
	c := spec.Cfg
	// Input conversion happens before the clock starts, like the encoding
	// of HTTP requests in the load phase.
	batches := make([][]rms.Update, len(p.updates))
	ops := make([][]topk.Op, len(p.updates))
	for i, u := range p.updates {
		batches[i] = u.batch()
		ops[i] = u.ops()
	}

	tr := &tracer{t0: time.Now()}
	out := &replayOut{Extra: map[string]float64{}}
	var lat []time.Duration
	var loop func() error // the timed loop over the op stream

	switch spec.Layer {
	case "core", "core-untimed":
		pts := toGeoms(p.initial)
		eps := tune.TuneEps(pts, c.D, regretK, c.R, c.M, serverSeed)
		f, err := core.New(c.D, pts, core.Config{K: regretK, R: c.R, Eps: eps, M: c.M, Seed: serverSeed})
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if spec.Layer == "core-untimed" {
			// The same calls with no span and no phase clock: the
			// baseline of the tracing overhead.
			loop = func() error {
				for i := range ops {
					f.ApplyBatch(ops[i])
				}
				return nil
			}
			break
		}
		reg := obs.NewRegistry()
		f.Instrument(topk.NewMetrics(reg), setcover.NewMetrics(reg), tr.now)
		loop = func() error {
			for i := range ops {
				lat = append(lat, tr.call(i, "internal/core", "FDRMS.ApplyBatch", func() { f.ApplyBatch(ops[i]) }))
			}
			cand, index, fanout, merge, emit := f.Engine().PhaseTotals()
			out.Phases = map[string]int64{"candidate": cand, "index": index, "fanout": fanout, "merge": merge, "emit": emit}
			return nil
		}
	case "dynamic":
		d, err := rms.NewDynamic(c.D, rmsPoints(p.initial), rmsOptions(c))
		if err != nil {
			return nil, err
		}
		defer d.Close()
		loop = func() error {
			for i := range batches {
				var err error
				lat = append(lat, tr.call(i, "rms", "Dynamic.ApplyBatch", func() { err = d.ApplyBatch(batches[i]) }))
				if err != nil {
					return err
				}
			}
			return nil
		}
	case "store":
		s, err := rms.NewStore(c.D, rmsPoints(p.initial), rmsOptions(c))
		if err != nil {
			return nil, err
		}
		defer s.Close()
		loop = func() error {
			for i := range batches {
				var err error
				lat = append(lat, tr.call(i, "rms", "Store.ApplyBatch", func() { err = s.ApplyBatch(batches[i]) }))
				if err != nil {
					return err
				}
			}
			return nil
		}
	case "wal":
		l, err := wal.Open(spec.Dir, wal.Options{SyncEveryAppend: true})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		loop = func() error {
			for i := range ops {
				var err error
				lat = append(lat, tr.call(i, "internal/wal", "Log.Append", func() { _, err = l.Append(ops[i]) }))
				if err != nil {
					return err
				}
			}
			return nil
		}
	case "durable":
		ds, err := rms.OpenDurable(spec.Dir, c.D, rmsPoints(p.initial), rmsOptions(c), durableOptions(c))
		if err != nil {
			return nil, err
		}
		defer ds.Close()
		loop = func() error {
			for i := range batches {
				var err error
				lat = append(lat, tr.call(i, "rms", "DurableStore.ApplyBatch", func() { err = ds.ApplyBatch(batches[i]) }))
				if err != nil && !errors.Is(err, rms.ErrAutoCheckpoint) {
					return err
				}
			}
			return nil
		}
	case "recover":
		// rms.OpenDurable on a copy of the run's directory, the workload's
		// reads against the recovered generation, then one checkpoint of
		// the recovered state.
		t := time.Now()
		ds, err := rms.OpenDurable(spec.Dir, c.D, nil, rmsOptions(c), durableOptions(c))
		if err != nil {
			return nil, err
		}
		out.Extra["recover_s"] = time.Since(t).Seconds()
		defer ds.Close()
		if err := replayReads(p, ds.Current(), tr, out); err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		ds.SetTelemetry(rms.NewTelemetry(reg))
		tr.call(0, "rms", "DurableStore.Checkpoint", func() { _, err = ds.Checkpoint() })
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := reg.WriteText(&text); err != nil {
			return nil, err
		}
		m := parseMetrics(text.Bytes())
		out.Extra["checkpoint_s"] = m["fdrms_store_checkpoint_ns_sum"] / 1e9
		out.Extra["checkpoint_stall_ms"] = m["fdrms_store_checkpoint_stall_ns_max"] / 1e6
		return out, tr.write(spec.Spans)
	case "replica":
		seq, payload, ok, err := wal.NewestCheckpoint(spec.Dir)
		if err != nil || !ok {
			return nil, fmt.Errorf("newest checkpoint of %s: ok=%v %v", spec.Dir, ok, err)
		}
		t := time.Now()
		s, _, err := rms.NewReplicaStore(payload, 0)
		if err != nil {
			return nil, err
		}
		out.Extra["restore_s"] = time.Since(t).Seconds()
		defer s.Close()
		tl := wal.NewTailer(spec.Dir, seq, wal.OSFS{})
		t = time.Now()
		replayed := 0
		for i := 0; ; i++ {
			var ops []topk.Op
			var perr error
			tr.call(i, "internal/wal", "Tailer.Poll", func() { ops, _, perr = tl.Poll(4096) })
			if perr != nil {
				return nil, perr
			}
			if len(ops) == 0 {
				break
			}
			tr.call(i, "rms", "Store.ApplyReplicated", func() { s.ApplyReplicated(ops) })
			replayed += len(ops)
		}
		el := time.Since(t).Seconds()
		out.Extra["replay_ops"] = float64(replayed)
		out.Extra["replay_s"] = el
		return out, tr.write(spec.Spans)
	default:
		return nil, fmt.Errorf("unknown replay layer %q", spec.Layer)
	}

	runtime.GC()
	a0, g0 := readRuntime()
	t := time.Now()
	if err := loop(); err != nil {
		return nil, err
	}
	out.WallNs = int64(time.Since(t))
	a1, g1 := readRuntime()
	out.AllocBytes, out.GCCPUNs = a1-a0, (g1-g0)*1e9
	out.Calls = len(p.updates)
	for _, d := range lat {
		out.SpanNs += int64(d)
	}
	out.P50Ns = int64(durQuantile(lat, 0.5))
	return out, tr.write(spec.Spans)
}

// replayReads times Generation.TopK and Generation.RegretRatioFor over the
// workload's queries.
func replayReads(p *plan, g *rms.Generation, tr *tracer, out *replayOut) error {
	var topkLat, regretLat []time.Duration
	for i, q := range p.queries {
		if q.kind == readResult {
			continue
		}
		var err error
		d := tr.call(i, "rms", "Generation.TopK", func() { _, err = g.TopK(q.u, topK) })
		if err != nil {
			return err
		}
		topkLat = append(topkLat, d)
		d = tr.call(i, "rms", "Generation.RegretRatioFor", func() { _, err = g.RegretRatioFor(q.u) })
		if err != nil {
			return err
		}
		regretLat = append(regretLat, d)
	}
	out.Extra["topk_p50_us"] = float64(durQuantile(topkLat, 0.5)) / 1e3
	out.Extra["topk_mean_us"] = float64(sumDur(topkLat)) / 1e3 / float64(len(topkLat))
	out.Extra["regret_p50_us"] = float64(durQuantile(regretLat, 0.5)) / 1e3
	return nil
}

func sumDur(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

func toGeoms(ps []point) []geom.Point {
	out := make([]geom.Point, len(ps))
	for i, p := range ps {
		out[i] = geom.Point{ID: p.id, Coords: p.v}
	}
	return out
}

// runReplay runs one replay in a fresh process of this binary.
func runReplay(spec replaySpec) (*replayOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), replayEnv+"="+string(b))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("replay %s: %w", spec.Layer, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out replayOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("replay %s output: %w", spec.Layer, err)
	}
	return &out, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// layerMetrics runs the in-process replays after the traced HTTP run and
// derives every per-layer metric. Spans and the report go to dir.
func (r *httpRun) layerMetrics(dir string) (map[string]metric, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range r.scrapes {
		if err := os.WriteFile(filepath.Join(dir, "metrics-"+s.name+".txt"), s.body, 0o644); err != nil {
			return nil, err
		}
	}
	base := replaySpec{Workload: r.p.w.name, Seed: r.p.seed, Seconds: r.seconds, Cfg: r.p.cfg}
	outs := map[string]*replayOut{}
	for _, layer := range []string{"core", "core-untimed", "dynamic", "store", "wal", "durable", "recover", "replica"} {
		spec := base
		spec.Layer = layer
		spec.Spans = filepath.Join(dir, "spans-"+layer+".jsonl")
		switch layer {
		case "wal", "durable":
			spec.Dir = filepath.Join(r.dir, "replay-"+layer)
		case "recover":
			spec.Dir = filepath.Join(r.dir, "replay-recover")
			if err := copyDir(r.walDir, spec.Dir); err != nil {
				return nil, err
			}
		case "replica":
			spec.Dir = r.walDir
		}
		t := time.Now()
		out, err := runReplay(spec)
		if err != nil {
			return nil, err
		}
		r.log("replay %-15s %v", layer, time.Since(t).Round(time.Millisecond))
		outs[layer] = out
		if spec.Dir != "" && spec.Dir != r.walDir {
			if err := os.RemoveAll(spec.Dir); err != nil {
				return nil, err
			}
		}
	}
	return r.derive(outs, dir)
}

// derive turns the replays and the /metrics scrapes into the per-layer
// metrics, and writes the per-request self-time report.
func (r *httpRun) derive(o map[string]*replayOut, dir string) (map[string]metric, error) {
	nTuples := float64(tuples(r.p.updates))
	calls := float64(len(r.p.updates))
	delta := func(series string) float64 { return r.after[series] - r.before[series] }
	ms := func(ns float64) float64 { return ns / 1e6 }
	perKop := func(x float64) float64 { return x / nTuples * 1000 }
	mean := func(x *replayOut) float64 { return float64(x.SpanNs) / float64(x.Calls) }

	core, plain, dyn, store, wl, dur := o["core"], o["core-untimed"], o["dynamic"], o["store"], o["wal"], o["durable"]
	phaseSum := int64(0)
	for _, v := range core.Phases {
		phaseSum += v
	}
	req, prom := delta("fdrms_topk_requeries_total"), delta("fdrms_topk_promotions_total")
	requeryShare := 0.0
	if req+prom > 0 {
		requeryShare = req / (req + prom)
	}
	clientUpdP50 := latencyMS(r.updLat, 0.5)
	clientTopkP50 := latencyMS(r.topkLat, 0.5)
	serverTopkP50 := ms(r.after[`fdrms_store_read_ns{kind="topk",quantile="0.5"}`])
	rec, rep := o["recover"].Extra, o["replica"].Extra
	// Tracing overhead: the instrumented core replay (spans and phase
	// clock) against the same calls made untimed.
	overhead := (float64(core.WallNs) - float64(plain.WallNs)) / float64(plain.WallNs) * 100

	m := map[string]metric{
		"rmsserve.update_self_ms":    {clientUpdP50 - ms(float64(dur.P50Ns)), "ms"},
		"rmsserve.topk_self_ms":      {clientTopkP50 - serverTopkP50, "ms"},
		"rms.durable_apply_ms":       {ms(float64(dur.P50Ns)), "ms"},
		"rms.publish_ms":             {ms(float64(store.P50Ns - dyn.P50Ns)), "ms"},
		"rms.publish_alloc_kib":      {(float64(store.AllocBytes) - float64(dyn.AllocBytes)) / calls / 1024, "KiB"},
		"rms.topk_us":                {rec["topk_p50_us"], "us"},
		"rms.regret_us":              {rec["regret_p50_us"], "us"},
		"rms.checkpoints":            {delta("fdrms_store_checkpoints_total"), "count"},
		"rms.checkpoint_s":           {rec["checkpoint_s"], "s"},
		"rms.checkpoint_stall_ms":    {rec["checkpoint_stall_ms"], "ms"},
		"rms.recover_s":              {rec["recover_s"], "s"},
		"wal.append_ms":              {ms(float64(wl.P50Ns)), "ms"},
		"wal.fsync_ms":               {ms(delta("fdrms_wal_fsync_ns_sum") / delta("fdrms_wal_fsync_ns_count")), "ms"},
		"wal.fsyncs_per_kop":         {perKop(delta("fdrms_wal_fsyncs_total")), "count"},
		"core.apply_us_per_op":       {float64(core.SpanNs) / nTuples / 1e3, "us"},
		"topk.candidate_ms_per_kop":  {ms(perKop(float64(core.Phases["candidate"]))), "ms"},
		"topk.index_ms_per_kop":      {ms(perKop(float64(core.Phases["index"]))), "ms"},
		"topk.fanout_ms_per_kop":     {ms(perKop(float64(core.Phases["fanout"]))), "ms"},
		"topk.merge_ms_per_kop":      {ms(perKop(float64(core.Phases["merge"]))), "ms"},
		"topk.emit_ms_per_kop":       {ms(perKop(float64(core.Phases["emit"]))), "ms"},
		"topk.affected_per_op":       {delta("fdrms_topk_affected_total") / nTuples, "count"},
		"topk.requery_share":         {requeryShare, "ratio"},
		"setcover.replay_ms_per_kop": {ms(perKop(float64(core.SpanNs - phaseSum))), "ms"},
		"setcover.takeovers_per_kop": {perKop(delta("fdrms_setcover_takeovers_total")), "count"},
		"replica.restore_s":          {rep["restore_s"], "s"},
		"replica.replay_ops_s":       {rep["replay_ops"] / rep["replay_s"], "1/s"},
		"runtime.gc_cpu_ms_per_req":  {ms(dur.GCCPUNs) / calls, "ms"},
		"runtime.alloc_kib_per_req":  {float64(dur.AllocBytes) / calls / 1024, "KiB"},
		"trace.overhead_pct":         {overhead, "%"},
	}

	// Per-request self time, layer by layer: differences of mean span
	// times of adjacent replays, so they sum to the durable total.
	type row struct {
		layer string
		ns    float64
	}
	// The engine rows split the untimed core time by the phase clock's
	// shares, so the instrumentation's own cost lands in no layer.
	corePlain := float64(plain.WallNs) / calls
	share := func(ns int64) float64 { return float64(ns) / float64(core.SpanNs) * corePlain }
	rows := []row{
		{"internal/topk candidate", share(core.Phases["candidate"])},
		{"internal/topk index", share(core.Phases["index"])},
		{"internal/topk fanout", share(core.Phases["fanout"])},
		{"internal/topk merge", share(core.Phases["merge"])},
		{"internal/topk emit", share(core.Phases["emit"])},
		{"internal/setcover + core rest", share(core.SpanNs - phaseSum)},
		{"rms.Dynamic (convert, validate)", mean(dyn) - corePlain},
		{"rms.Store (publish)", mean(store) - mean(dyn)},
		{"internal/wal (append, fsync)", mean(wl)},
		{"rms.DurableStore (lock, checkpoints)", mean(dur) - mean(store) - mean(wl)},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer self time per POST /update (%s, seed %d, %d requests, %d tuples)\n", r.p.w.name, r.p.seed, len(r.p.updates), int(nTuples))
	sum := 0.0
	for _, x := range rows {
		sum += x.ns
		fmt.Fprintf(&b, "  %-38s %10.3f ms  %5.1f%%\n", x.layer, x.ns/1e6, 100*x.ns/mean(dur))
	}
	fmt.Fprintf(&b, "  %-38s %10.3f ms  (sum of the rows above)\n", "in-process total", sum/1e6)
	fmt.Fprintf(&b, "  %-38s %10.3f ms  (DurableStore.ApplyBatch mean)\n", "DurableStore.ApplyBatch", mean(dur)/1e6)
	fmt.Fprintf(&b, "  %-38s %10.3f ms  (client mean - in-process total)\n", "cmd/rmsserve (HTTP, JSON, loopback)", float64(sumDur(r.updLat))/calls/1e6-mean(dur)/1e6)
	nTopk := float64(len(r.topkLat))
	fmt.Fprintf(&b, "per-layer self time per GET /topk\n")
	fmt.Fprintf(&b, "  %-38s %10.3f ms\n", "rms.Generation.TopK (kd-tree view)", rec["topk_mean_us"]/1e3)
	fmt.Fprintf(&b, "  %-38s %10.3f ms  (client mean - in-process)\n", "cmd/rmsserve (HTTP, JSON, loopback)", float64(sumDur(r.topkLat))/nTopk/1e6-rec["topk_mean_us"]/1e3)
	fmt.Fprintf(&b, "tracing overhead: core.FDRMS replay with spans and phase clock %.3f s, untimed %.3f s: %+.2f%%\n",
		float64(core.WallNs)/1e9, float64(plain.WallNs)/1e9, overhead)
	fmt.Fprintf(&b, "spans: %s\n", dir)
	report := b.String()
	r.log("report\n%s", report)
	if err := os.WriteFile(filepath.Join(dir, "report.txt"), []byte(report), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}
