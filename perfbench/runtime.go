package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPU returns the calling OS thread's user+system CPU time so far.
// Under runtime.LockOSThread that is the CPU of the calling goroutine
// (with the GC assists it ran). Time the host stole from the machine is
// not in it.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU returns the CPU time the host has stolen from this machine
// so far, summed over its CPUs: the steal column of /proc/stat, in the
// kernel's fixed 1/100 s ticks. ok is false where it cannot be read.
func stolenCPU() (stolen time.Duration, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true
}

// stealMeter measures the share of the machine's CPU time the host
// stole over an interval.
type stealMeter struct {
	t0     time.Time
	stolen time.Duration
	ok     bool
}

func startSteal() stealMeter {
	st, ok := stolenCPU()
	return stealMeter{t0: time.Now(), stolen: st, ok: ok}
}

// share is the stolen CPU time since the start over all CPU time the
// machine had in that wall time; -1 if /proc/stat cannot be read.
func (m stealMeter) share() float64 {
	st, ok := stolenCPU()
	wall := time.Since(m.t0)
	if !ok || !m.ok || wall <= 0 {
		return -1
	}
	return (st - m.stolen).Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeKeys = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/goroutines:goroutines",
}

// runtimeSample reads the Go runtime's GC CPU, total CPU, cumulative
// allocation and goroutine count.
func runtimeSample() (gcCPU, totalCPU, allocBytes float64, goroutines int) {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		default:
			return 0
		}
	}
	return f(0), f(1), f(2), int(f(3))
}

// runtimeDelta is the runtime's activity over one measured phase.
type runtimeDelta struct {
	gcCPU, totalCPU, allocBytes float64
	goroutinesMax               int
}

func (d runtimeDelta) gcFrac() float64 { return ratio(d.gcCPU, d.totalCPU) }

// runtimeWatch samples the goroutine count every few milliseconds
// between start and stop, and diffs the cumulative counters.
type runtimeWatch struct {
	gc0, total0, alloc0 float64
	mu                  sync.Mutex
	max                 int
	stop, done          chan struct{}
}

func startRuntimeWatch() *runtimeWatch {
	w := &runtimeWatch{stop: make(chan struct{}), done: make(chan struct{})}
	var g int
	w.gc0, w.total0, w.alloc0, g = runtimeSample()
	w.max = g
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				n := numGoroutines()
				w.mu.Lock()
				if n > w.max {
					w.max = n
				}
				w.mu.Unlock()
			}
		}
	}()
	return w
}

func numGoroutines() int {
	s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	return int(s[0].Value.Uint64())
}

func (w *runtimeWatch) finish() runtimeDelta {
	close(w.stop)
	<-w.done
	gc, total, alloc, g := runtimeSample()
	w.mu.Lock()
	defer w.mu.Unlock()
	if g > w.max {
		w.max = g
	}
	return runtimeDelta{gcCPU: gc - w.gc0, totalCPU: total - w.total0, allocBytes: alloc - w.alloc0, goroutinesMax: w.max}
}
