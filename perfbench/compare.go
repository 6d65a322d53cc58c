package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet maps workload -> metric -> one value per run.
type runSet map[string]map[string][]float64

// loadRuns reads every file of dir named <workload>.<anything>: the saved
// standard output of one run, whose last line is its result.
func loadRuns(dir string) (runSet, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range ents {
		name := e.Name()
		i := strings.IndexByte(name, '.')
		if e.IsDir() || i <= 0 {
			continue
		}
		last, err := lastLine(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
			continue // not a run output: stderr, or a run that printed no result
		}
		w := name[:i]
		if set[w] == nil {
			set[w] = map[string][]float64{}
		}
		for m, v := range res.Metrics {
			set[w][m] = append(set[w][m], v.Value)
		}
	}
	return set, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

// quartiles returns Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// compareMain prints, for each workload and end-to-end metric, the median
// and quartiles of each set and whether the new median is worse than the
// old by more than the metric's bound. With one directory it prints that
// set's spread (quartile distance over median) against each bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD_DIR [NEW_DIR]")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var sets []runSet
	for _, dir := range fs.Args() {
		s, err := loadRuns(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sets = append(sets, s)
	}

	worse := 0
	for _, w := range spec.Workloads {
		fmt.Printf("%s\n", w.Name)
		for _, m := range spec.EndToEnd {
			old := sets[0][w.Name][m.Name]
			if len(old) == 0 {
				fmt.Printf("  %-22s no runs\n", m.Name)
				continue
			}
			o1, o2, o3 := quartiles(old)
			spread := (o3 - o1) / math.Abs(o2)
			if len(sets) == 1 {
				flag := ""
				if m.Name != "setup_s" && spread > m.Bound {
					flag = "  SPREAD ABOVE BOUND"
				}
				fmt.Printf("  %-22s n=%-2d median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% bound %3.0f%%%s\n",
					m.Name, len(old), o2, o1, o3, 100*spread, 100*m.Bound, flag)
				continue
			}
			cur := sets[1][w.Name][m.Name]
			if len(cur) == 0 {
				fmt.Printf("  %-22s no runs in the new set\n", m.Name)
				continue
			}
			n1, n2, n3 := quartiles(cur)
			change := (n2 - o2) / math.Abs(o2)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			if change > m.Bound {
				verdict = "WORSE BEYOND BOUND"
				worse++
			}
			fmt.Printf("  %-22s old %-12.6g [%-10.6g %-10.6g] new %-12.6g [%-10.6g %-10.6g] worse by %+7.2f%% (bound %3.0f%%) %s\n",
				m.Name, o2, o1, o3, n2, n1, n3, 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
