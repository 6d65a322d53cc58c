package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the traced smoke run re-execute the test binary as a
// replay process, as the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if spec := os.Getenv(replayEnv); spec != "" {
		os.Exit(replayMain(spec))
	}
	os.Exit(m.Run())
}

// smokeConfig is the benchmark's run shape at a size that takes seconds.
func smokeConfig() config {
	return config{N: 3000, D: 4, R: 10, M: 256, CkptOps: 4000}
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rmsserve")
	out, err := exec.Command("go", "build", "-o", bin, "fdrms/cmd/rmsserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building rmsserve: %v\n%s", err, out)
	}
	return bin
}

func loadBenchSpec(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{}
	for _, w := range spec.Workloads {
		names["workloads"] = append(names["workloads"], w.Name)
	}
	for _, m := range spec.EndToEnd {
		names["end_to_end"] = append(names["end_to_end"], m.Name)
	}
	for _, m := range spec.PerLayer {
		names["per_layer"] = append(names["per_layer"], m.Name)
	}
	return names
}

// TestSmoke runs every workload through all five phases and every check at
// a tiny n, plus one traced run, and checks each result carries exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts rmsserve processes")
	}
	bin := buildServer(t)
	spec := loadBenchSpec(t)
	if got, want := strings.Join(spec["workloads"], ","), "ingest-single,ingest-bulk,read-mostly"; got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	work := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.name != "ingest-bulk" {
				continue
			}
			res, err := benchmark(smokeConfig(), w, 7, 1, trace, bin, work, os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s: correct %v, %d of %d requests failed", w.name, res.Correct, res.Failed, res.Attempted)
			}
			want := spec["end_to_end"]
			if trace {
				want = spec["per_layer"]
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
					continue
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestCheckFailureNamesRequest feeds the checks a wrong update response
// and expects the failure to name the workload, the check, the generation
// and the request.
func TestCheckFailureNamesRequest(t *testing.T) {
	cfg := smokeConfig()
	w, err := workloadByName("ingest-single")
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(cfg, w, 1, 0.05)
	r := &httpRun{p: p, gen0: 1}
	for i := range p.updates {
		b, _ := json.Marshal(map[string]any{"generation": 2 + i, "n": 0})
		r.updBody = append(r.updBody, b)
		r.updOK = append(r.updOK, true)
	}
	_, cf := r.check()
	if cf == nil {
		t.Fatal("a wrong n passed the checks")
	}
	if cf.workload != "ingest-single" || cf.check != "update-n" || cf.generation != 2 || cf.request != "update #0" {
		t.Fatalf("failure = %+v, want ingest-single update-n generation 2 update #0", cf)
	}
	if msg := cf.Error(); !strings.Contains(msg, "workload=ingest-single") || !strings.Contains(msg, "request=update #0") {
		t.Fatalf("message %q does not name the workload and request", msg)
	}
}
