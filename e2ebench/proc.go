package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running sketchtreed process (or spinner, see spin.go).
// Each runs in its own process group, so stopping it reaches anything
// it might start.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string        // http://host:port once listening
	exited chan struct{} // closed once the process has been reaped
}

// fleet owns every process a run starts and stops them all on every
// exit path: success, a failed check, a panic and an interrupt.
type fleet struct {
	bin    string
	logDir string

	mu    sync.Mutex
	procs []*daemon
}

// stopGrace is how long a daemon gets to drain after SIGTERM before it
// is killed.
const stopGrace = 10 * time.Second

// launch starts one daemon and waits until it prints its listening
// address (after any preload), or fails if it exits first.
func (f *fleet) launch(ctx context.Context, name string, args []string) (*daemon, error) {
	logf, err := os.OpenFile(filepath.Join(f.logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	f.add(d)

	addrc := make(chan string, 1)
	go func() {
		// Reads stdout to EOF (the daemon's exit), then reaps it: Wait
		// must follow the last read of the pipe.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
				addr := line[i+len("listening on http://"):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				addrc <- addr
				sent = true
			}
		}
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		logf.Close()
		close(d.exited)
	}()

	select {
	case addr := <-addrc:
		d.url = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("%s did not start listening within 2m", name)
	}
}

// add registers a started process with the fleet.
func (f *fleet) add(d *daemon) {
	f.mu.Lock()
	f.procs = append(f.procs, d)
	f.mu.Unlock()
}

// pid returns the daemon's process ID (also its process group ID).
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop stops the given daemons: SIGTERM to each process group, then
// SIGKILL to any group still alive after the grace period. It returns
// once every daemon has been reaped and its group is empty.
func (f *fleet) stop(ds []*daemon) error {
	for _, d := range ds {
		_ = syscall.Kill(-d.pid(), syscall.SIGTERM) // ESRCH: already gone
	}
	deadline := time.After(stopGrace)
	for _, d := range ds {
		select {
		case <-d.exited:
		case <-deadline:
			_ = syscall.Kill(-d.pid(), syscall.SIGKILL)
			<-d.exited
		}
	}
	var errs []error
	for _, d := range ds {
		// The leader is reaped; anything else left in its group would
		// have outlived the run.
		if err := syscall.Kill(-d.pid(), syscall.SIGKILL); !errors.Is(err, syscall.ESRCH) {
			errs = append(errs, fmt.Errorf("%s: process group %d still had members", d.name, d.pid()))
		}
	}
	f.mu.Lock()
	kept := f.procs[:0]
	for _, p := range f.procs {
		if !contains(ds, p) {
			kept = append(kept, p)
		}
	}
	f.procs = kept
	f.mu.Unlock()
	return errors.Join(errs...)
}

// stopAll stops every daemon still running.
func (f *fleet) stopAll() error {
	f.mu.Lock()
	ds := append([]*daemon(nil), f.procs...)
	f.mu.Unlock()
	return f.stop(ds)
}

// remaining reports how many started daemons have not been stopped.
func (f *fleet) remaining() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.procs)
}

func contains(ds []*daemon, d *daemon) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (all threads), in milliseconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times (100 on Linux).
const clockTicks = 100

// procPeakRSS returns a process's peak resident set size (VmHWM) in
// MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the machine's CPU time from /proc/stat, in clock ticks:
// all states, and the part stolen by the hypervisor.
type cpuTimes struct{ total, steal float64 }

// machineCPU reads the aggregate "cpu" line of /proc/stat.
func machineCPU() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat")
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		if i < 8 { // user .. steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}
