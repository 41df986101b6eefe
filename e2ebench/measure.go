package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const mib = 1 << 20

// probe is one reading of the process counters a span is measured
// with: wall clock, user+sys CPU, and cumulative heap allocation.
type probe struct {
	at     time.Time
	cpu    float64 // seconds
	allocs uint64  // bytes
}

func readProbe() probe {
	return probe{at: time.Now(), cpu: cpuSeconds(), allocs: heapAllocs()}
}

// delta is what happened between two probes.
type delta struct {
	wall, cpu, allocMiB float64
}

func (p probe) until(q probe) delta {
	return delta{
		wall:     q.at.Sub(p.at).Seconds(),
		cpu:      q.cpu - p.cpu,
		allocMiB: float64(q.allocs-p.allocs) / mib,
	}
}

// cpuSeconds is the process's user+sys CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeapMiB forces a collection and returns the heap still reachable.
func liveHeapMiB() float64 {
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / mib
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident high-water mark (VmHWM) to the current RSS.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the resident high-water mark since the last reset.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite maps the +Inf an idle thread gives an imbalance ratio to 0,
// which JSON can carry; a ratio is otherwise at least 1.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}
