package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The reference machine is a virtual machine. A virtual CPU with
// nothing to run halts, and waking it again waits for the hypervisor
// to schedule it, which the guest counts as stolen time. The daemons
// and the load generator hand every request back and forth between
// processes, so their CPUs halt and wake thousands of times a second:
// unkept, a third of the machine's CPU time was stolen under the
// benchmark's load (against 1–3% with both CPUs busy), and how much
// varied from minute to minute. So while the daemons run, each CPU
// also runs a spinner: this binary in spin mode, pinned to that CPU
// at SCHED_IDLE priority, which keeps the CPU awake and gives way at
// once to any other task that becomes runnable.

// spinArg, as the first argument, starts this binary as a spinner.
const spinArg = "spin"

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinMain pins the calling thread to the i-th CPU it may run on,
// lowers it to SCHED_IDLE, reports that on stdout and spins until the
// process is stopped.
func spinMain(arg string) int {
	i, err := strconv.Atoi(arg)
	if err != nil || i < 0 {
		fmt.Fprintf(os.Stderr, "spin: bad CPU index %q\n", arg)
		return 2
	}
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintf(os.Stderr, "spin: sched_getaffinity: %v\n", e)
		return 1
	}
	var cpus []int
	for c := 0; c < 64*len(mask); c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		fmt.Fprintln(os.Stderr, "spin: no CPU to run on")
		return 1
	}
	cpu := cpus[i%len(cpus)]
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintf(os.Stderr, "spin: sched_setaffinity: %v\n", e)
		return 1
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintf(os.Stderr, "spin: sched_setscheduler(SCHED_IDLE): %v\n", e)
		return 1
	}
	fmt.Printf("spinning on cpu %d\n", cpu)
	for {
	}
}

// spin starts one spinner per CPU the benchmark may use. They belong
// to the fleet, so they are stopped on every exit path like the
// daemons.
func (f *fleet) spin() ([]*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ds []*daemon
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinArg, strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return ds, err
		}
		if err := cmd.Start(); err != nil {
			return ds, fmt.Errorf("starting spinner %d: %w", i, err)
		}
		d := &daemon{name: fmt.Sprintf("spinner%d", i), cmd: cmd, exited: make(chan struct{})}
		f.add(d)
		ds = append(ds, d)
		ready := make(chan string, 1)
		go func() {
			line, _ := bufio.NewReader(out).ReadString('\n')
			ready <- line
			_, _ = io.Copy(io.Discard, out)
			_ = cmd.Wait() // stopped spinners exit on a signal
			close(d.exited)
		}()
		if line := <-ready; !strings.HasPrefix(line, "spinning") {
			return ds, fmt.Errorf("spinner %d did not start", i)
		}
	}
	return ds, nil
}
