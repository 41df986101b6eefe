package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
)

// refKernelCPU is hostKernel's typical CPU time on a shared 2-vCPU
// x86-64 cloud host (Go 1.24). It only sets the scale of the host
// index: the corrected times read in seconds on such a host.
const refKernelCPU = 0.85

// kernelSink keeps the kernel's results alive.
var kernelSink [64]uint64

// hostKernel runs a fixed piece of work shaped like the assembly's,
// counting random keys in an open-addressing table too large for the
// caches and then sorting, for a fixed number of rounds on each of
// GOMAXPROCS goroutines, and returns the CPU time it took. Nothing in it comes from the program,
// so a change to the program cannot move it; only the host's speed
// does. Its buffers are allocated up front and the collector is off
// while it runs, so that the kernel itself varies little.
func hostKernel() float64 {
	const rounds, tableBits, keys, sortLen = 28, 20, 1 << 18, 1 << 16
	workers := runtime.GOMAXPROCS(0)
	tables := make([][]uint64, workers)
	sorts := make([][]uint64, workers)
	for w := range tables {
		tables[w] = make([]uint64, 1<<tableBits)
		sorts[w] = make([]uint64, sortLen)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := cpuSeconds()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			table, xs := tables[w], sorts[w]
			const mask = 1<<tableBits - 1
			for r := 0; r < rounds; r++ {
				clear(table)
				for i := 0; i < keys; i++ {
					k := rng.Uint64() | 1
					for h := (k * 0x9E3779B97F4A7C15) >> (64 - tableBits); ; h = (h + 1) & mask {
						if table[h] == 0 || table[h] == k {
							table[h] = k
							break
						}
					}
				}
				for i := range xs {
					xs[i] = rng.Uint64()
				}
				slices.Sort(xs)
				kernelSink[w%len(kernelSink)] += xs[sortLen/2] + table[keys&mask]
			}
		}(w)
	}
	wg.Wait()
	return cpuSeconds() - t0
}

// hostMeter brackets each timed sample with hostKernel runs. A
// sample's host index is the mean of the kernel's CPU times just
// before and just after it over refKernelCPU: 1 on a quiet reference
// host, above 1 while neighbours slow the shared CPUs down (a busy
// hyperthread sibling, memory bandwidth, clock speed). Dividing a time
// by its index takes out the host's drift, which on a shared host
// moves whole minutes of samples by 20% and more, and keeps the
// program's own changes. The index is read from CPU time, not wall
// time: time the host takes the CPUs away (steal) stalls the kernel's
// goroutines, which finish together, far more than the assembly.
type hostMeter struct {
	last float64 // the latest kernel CPU time
}

func newHostMeter() *hostMeter { return &hostMeter{last: hostKernel()} }

// next runs the kernel again and returns the index of the sample taken
// since the previous call.
func (h *hostMeter) next() float64 {
	k := hostKernel()
	idx := (h.last + k) / 2 / refKernelCPU
	h.last = k
	return idx
}

// stealSeconds is the time the hypervisor has taken the machine's
// CPUs away from it (the steal column of /proc/stat, in USER_HZ = 100
// ticks a second), averaged over the CPUs. A timed sample subtracts
// what accrued during it from its wall time: a stolen CPU holds up the
// whole assembly at its next barrier, so the wall time grows by about
// the average steal, while the CPU time, which leaves steal out, does
// not.
func stealSeconds() (float64, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, fmt.Errorf("steal time: %w", err)
	}
	var total float64
	cpus := 0
	for i, line := range bytes.Split(stat, []byte("\n")) {
		f := bytes.Fields(line)
		switch {
		case i == 0 && len(f) > 8 && string(f[0]) == "cpu":
			ticks, err := strconv.ParseFloat(string(f[8]), 64)
			if err != nil {
				return 0, fmt.Errorf("steal time: parse %q: %w", line, err)
			}
			total = ticks / 100
		case len(f) > 0 && bytes.HasPrefix(f[0], []byte("cpu")) && len(f[0]) > 3:
			cpus++
		}
	}
	if cpus == 0 {
		return 0, fmt.Errorf("steal time: no per-CPU lines in /proc/stat")
	}
	return total / float64(cpus), nil
}
