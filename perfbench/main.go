// Command perfbench is the end-to-end benchmark of rmsserve. It boots the
// real server as a durable primary, drives it over loopback HTTP with one
// workload's seeded traffic, starts a follower on the primary's WAL
// directory, kills and restarts the primary, and checks every answer
// against its own brute-force oracle after the clock stops.
//
//	perfbench -server BIN -workload NAME -seed N -seconds S -trace 0|1
//	perfbench compare OLD_DIR NEW_DIR
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with -trace 0, per-layer with
// -trace 1). A failing check exits 3 after naming the workload, the check,
// the generation and the first offending request. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if spec := os.Getenv(replayEnv); spec != "" {
		os.Exit(replayMain(spec))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "seed of the op stream and the queries")
		seconds = fs.Float64("seconds", 10, "load-phase size, in seconds of work at the reference rate")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		server  = fs.String("server", "", "rmsserve binary built from the tree under test")
		work    = fs.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL directories, logs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required")
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	res, err := benchmark(defaultConfig(), w, *seed, *seconds, *trace == 1, *server, *work, os.Stderr)
	var cf *checkFailure
	if err != nil && !errors.As(err, &cf) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, _ := json.Marshal(res) // a struct of numbers and strings always encodes
	fmt.Println(string(out))
	if cf != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", cf)
		return 3
	}
	return 0
}

// benchmark makes one run of workload w and returns its result. A check
// failure comes back as a *checkFailure together with a result whose
// correct field is false.
func benchmark(cfg config, w workload, seed int64, seconds float64, trace bool, server, work string, logw io.Writer) (*result, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(logw, "perfbench %s: "+format+"\n", append([]any{w.name}, args...)...)
	}
	bin, err := filepath.Abs(server)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("rmsserve binary: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p := makePlan(cfg, w, seed, seconds)
	r := &httpRun{p: p, seconds: seconds, bin: bin, dir: dir, trace: trace, log: logf}
	if err := r.run(); err != nil {
		return nil, err
	}
	checkStart := time.Now()
	mrr, cf := r.check()
	logf("checks: %v", time.Since(checkStart))

	res := &result{Correct: cf == nil, Metrics: map[string]metric{}}
	for kind, c := range r.counts {
		if kind == "check" {
			continue
		}
		res.Attempted += c.attempted
		res.Failed += c.failed
		logf("requests %-7s attempted %d failed %d", kind, c.attempted, c.failed)
	}
	if w.readMostly {
		logf("writer lateness: p99 %v, max %v", r.lateP99, r.lateMax)
	}
	for _, k := range []struct {
		name string
		lat  []time.Duration
	}{{"update", r.timedUpd}, {"topk", r.timedTopk}} {
		logf("%-6s latency ms: p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f (%d requests)", k.name,
			latencyMS(k.lat, 0.5), latencyMS(k.lat, 0.9), latencyMS(k.lat, 0.95), latencyMS(k.lat, 0.99), latencyMS(k.lat, 1), len(k.lat))
	}

	if trace {
		lm, err := r.layerMetrics(filepath.Join(work, fmt.Sprintf("trace-%s-%d", w.name, seed)))
		if err != nil {
			return nil, err
		}
		lm["core.answer_mrr"] = metric{mrr, "ratio"}
		res.Metrics = lm
	} else {
		res.Metrics = r.endToEnd()
	}
	for _, name := range sortedKeys(res.Metrics) {
		logf("%-32s %14.6g %s", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if cf != nil {
		return res, cf
	}
	return res, nil
}

// endToEnd computes the user-visible metrics of the run.
func (r *httpRun) endToEnd() map[string]metric {
	secs := r.elapsed.Seconds()
	// The CPU time, the log bytes and the peak RSS cover the whole load
	// phase, warm-up included; the rates and latencies its timed part.
	served := float64(len(r.updLat) + r.readsDone())
	return map[string]metric{
		"setup_s":               {medianSeconds(r.setups), "s"},
		"update_ops_s":          {float64(tuples(r.p.updates[r.p.warm:])) / secs, "tuples/s"},
		"update_p50_ms":         {latencyMS(r.timedUpd, 0.50), "ms"},
		"read_ops_s":            {float64(r.timedReads) / secs, "1/s"},
		"topk_p50_ms":           {latencyMS(r.timedTopk, 0.50), "ms"},
		"server_cpu_ms_per_req": {float64(r.cpu) / 1e6 / served, "ms"},
		"follower_catchup_s":    {medianSeconds(r.catchups), "s"},
		"recovery_s":            {medianSeconds(r.recoveries), "s"},
		"peak_rss_mib":          {r.rssMiB, "MiB"},
		"wal_bytes_per_op":      {r.walBytes / float64(tuples(r.p.updates)), "B"},
	}
}
