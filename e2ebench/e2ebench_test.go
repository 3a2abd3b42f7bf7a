package main

import (
	"bufio"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"sketchtree/internal/match"
)

// TestInterruptStopsDaemons interrupts a run partway through its
// measured phase and checks that it exits non-zero without printing a
// result, and that none of the processes it started (daemons and
// spinners) outlives it.
func TestInterruptStopsDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	dir := t.TempDir()
	bench, daemon := filepath.Join(dir, "e2ebench"), filepath.Join(dir, "sketchtreed")
	for _, b := range []struct{ dir, out, pkg string }{{".", bench, "."}, {"..", daemon, "./cmd/sketchtreed"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	cmd := exec.Command(bench, "-daemon", daemon, "-workdir", filepath.Join(dir, "work"), "-root", "..",
		"--workload", "window-treebank", "--seed", "1", "--seconds", "60", "--trace", "0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		exited <- cmd.Wait()
	}()

	var pids []int
	var output []string
	timeout := time.After(2 * time.Minute)
	for pids == nil {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("run ended before starting its daemons:\n%s", strings.Join(output, "\n"))
			}
			output = append(output, line)
			if strings.HasPrefix(line, "set-up:") {
				for _, m := range regexp.MustCompile(`pid (\d+)`).FindAllStringSubmatch(line, -1) {
					pid, _ := strconv.Atoi(m[1])
					pids = append(pids, pid)
				}
			}
		case <-timeout:
			_ = cmd.Process.Kill()
			t.Fatal("no set-up line within 2m")
		}
	}
	if len(pids) == 0 {
		t.Fatal("set-up line names no pid")
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != nil {
			t.Fatalf("process %d not running after set-up: %v", pid, err)
		}
	}
	time.Sleep(time.Second) // into the measured phase
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		output = append(output, line)
	}
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() == 0 {
			t.Fatalf("interrupted run exited with %v, want a non-zero status", err)
		}
	case <-time.After(time.Minute):
		_ = cmd.Process.Kill()
		t.Fatal("interrupted run did not exit within 1m")
	}
	for _, line := range output {
		if strings.HasPrefix(line, "{") {
			t.Errorf("interrupted run printed a result: %s", line)
		}
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("process %d outlived the interrupted run (kill 0: %v)", pid, err)
		}
	}
}

// TestGeneratedQueriesOccur checks the seeded generator: the same seed
// gives the same inputs, and every pattern meets the count floor over
// the documents it was drawn from.
func TestGeneratedQueriesOccur(t *testing.T) {
	w := *workloads[2]
	w.patterns, w.sets, w.exprs, w.minCount = 12, 4, 4, 60
	a, err := generate(&w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(&w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.queries) != len(b.queries) {
		t.Fatalf("same seed, %d vs %d queries", len(a.queries), len(b.queries))
	}
	for i := range a.queries {
		if string(a.queries[i].body) != string(b.queries[i].body) {
			t.Fatalf("same seed, query %d differs: %s vs %s", i, a.queries[i].body, b.queries[i].body)
		}
	}
	for _, p := range a.pats {
		var c int64
		for _, d := range a.cycle {
			c += match.CountOrdered(d.tree.Root, p)
		}
		if c < int64(w.minCount) {
			t.Errorf("pattern %s: count %d below the floor %d", p, c, w.minCount)
		}
	}
}

// TestPatternFloorHalves checks the draw on documents that hold fewer
// patterns at the floor than asked for: it still returns as many
// distinct patterns as asked, the later ones below the floor.
func TestPatternFloorHalves(t *testing.T) {
	docs, err := genDocs("TREEBANK", 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	w := *workloads[0]
	w.patterns, w.minCount = 40, 30
	pats, err := selectPatterns(rand.New(rand.NewPCG(1, 2)), docs, &w)
	if err != nil {
		t.Fatal(err)
	}
	seen, below := map[string]bool{}, 0
	for _, p := range pats {
		if seen[p.String()] {
			t.Errorf("pattern %s drawn twice", p)
		}
		seen[p.String()] = true
		if countOrdered(docs, p) < int64(w.minCount) {
			below++
		}
	}
	if len(pats) != w.patterns || below == 0 {
		t.Fatalf("%d patterns, %d below the floor; want %d, some below", len(pats), below, w.patterns)
	}
}

// TestVisibleLags checks the coverage sweep on a hand-made trace: a
// document is visible at the first provenance read covering it, never
// before its acknowledgement.
func TestVisibleLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &traffic{
		warmDocs: 1,
		feed: []ingestRec{
			{acked: at(1), ok: true},
			{acked: at(2), ok: true},  // measured: fed 2, covered at read 3 (t=10)
			{acked: at(4), ok: true},  // fed 3, covered at read 3 (t=10)
			{acked: at(12), ok: true}, // fed 4, read 4 (t=11) shows it before the ack
		},
		polls: []pollRec{
			{at: at(3), provenance: provenance{cover: 1}, ok: true},
			{at: at(5), ok: false},
			{at: at(10), provenance: provenance{cover: 3}, ok: true},
			{at: at(11), provenance: provenance{cover: 4}, ok: true},
		},
	}
	got := visibleLags(tr, func(fed int) int64 { return int64(fed) })
	want := []float64{8, 6, 0}
	if len(got) != len(want) {
		t.Fatalf("lags = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("lags = %v, want %v", got, want)
		}
	}
}
