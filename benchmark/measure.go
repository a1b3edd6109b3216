package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the three process-wide meters a round is
// charged with: wall clock, user+system CPU, and bytes allocated.
type usage struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

var processStart = time.Now()

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:  time.Since(processStart),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

func (u usage) sub(o usage) usage {
	return usage{wall: u.wall - o.wall, cpu: u.cpu - o.cpu, alloc: u.alloc - o.alloc}
}

func (u usage) add(o usage) usage {
	return usage{wall: u.wall + o.wall, cpu: u.cpu + o.cpu, alloc: u.alloc + o.alloc}
}

// liveHeapMB forces a collection and reports what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeLoop calls fn repeatedly for about budget (at least once) and
// returns the mean nanoseconds per unit, where each call reports how
// many units it processed.
func timeLoop(budget time.Duration, fn func() int) float64 {
	var units int
	t0 := time.Now()
	for {
		units += fn()
		if time.Since(t0) >= budget {
			break
		}
	}
	return ratio(float64(time.Since(t0)), float64(units))
}
