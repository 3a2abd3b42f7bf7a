// Command repeat runs one benchmark workload over seeds 1, 2, ... for
// the run length BENCHMARK.json gives (run_seconds) and prints, for
// each metric, the median and quartiles of its values and the spread
// between the quartiles as a share of the median — the figures the
// benchmark's bounds and README tables come from. Quartiles are
// computed like Python's statistics.quantiles(values, n=4). It is
// started through repeat.sh, from the repository root:
//
//	bash e2ebench/repeat.sh --workload window-treebank --runs 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
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
	workload := flag.String("workload", "", "workload name")
	runs := flag.Int("runs", 10, "runs, one seed each")
	flag.Parse()
	if *workload == "" || *runs < 2 {
		fmt.Fprintln(os.Stderr, "repeat: need -workload and -runs >= 2")
		os.Exit(2)
	}
	seconds, err := runSeconds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "repeat:", err)
		os.Exit(1)
	}
	var results []result
	for seed := 1; seed <= *runs; seed++ {
		cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", *workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		began := time.Now()
		stdout, err := cmd.Output()
		took := time.Since(began)
		last := lastLine(stdout)
		var r result
		if jerr := json.Unmarshal([]byte(last), &r); err != nil || jerr != nil || !r.Correct {
			fmt.Fprintf(os.Stderr, "repeat: seed %d failed (%v):\n%s", seed, err, stdout)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "seed %d: attempted %d failed %d, %.1f s\n", seed, r.Attempted, r.Failed, took.Seconds())
		for name, m := range unboundedLines(stdout) {
			r.Metrics[name+" (unbounded)"] = m
		}
		results = append(results, r)
	}
	var names []string
	for n := range results[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs, seeds 1..%d, --seconds %d\n", *workload, *runs, *runs, seconds)
	fmt.Printf("%-44s %-7s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, n := range names {
		var vs []float64
		for _, r := range results {
			vs = append(vs, r.Metrics[n].Value)
		}
		q1, q2, q3 := quartiles(vs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-44s %-7s %12.5g %12.5g %12.5g %8.3f\n", n, results[0].Metrics[n].Unit, q1, q2, q3, spread)
	}
	for i, r := range results {
		fmt.Printf("seed %d: failed %d of %d attempted (share %.6f)\n", i+1, r.Failed, r.Attempted,
			float64(r.Failed)/float64(r.Attempted))
	}
}

// runSeconds reads run_seconds from the benchmark's definition.
func runSeconds(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var def struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if def.RunSeconds < 1 {
		return 0, fmt.Errorf("%s: no run_seconds", path)
	}
	return def.RunSeconds, nil
}

// unboundedLines reads the report's "unbounded <name> = <value> <unit>"
// lines: figures each run prints but BENCHMARK.json does not bound.
func unboundedLines(out []byte) map[string]metric {
	m := map[string]metric{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || f[0] != "unbounded" || f[2] != "=" {
			continue
		}
		if v, err := strconv.ParseFloat(f[3], 64); err == nil {
			m[f[1]] = metric{Value: v, Unit: f[4]}
		}
	}
	return m
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) ("exclusive"
// method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n, m := 4, len(d)+1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}
