package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// durs is a sample of latencies.
type durs []time.Duration

// quantile returns the q-quantile (0..1) by the nearest-rank rule; 0 for
// an empty sample.
func (d durs) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (d durs) sum() time.Duration {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum
}

func (d durs) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d.sum() / time.Duration(len(d))
}

// supportedTail returns the highest of p90/p99/p99.9 that leaves at
// least ten samples above it, and false when the sample is under forty
// (then only the median is meaningful).
func supportedTail(n int) (float64, string, bool) {
	if n < 40 {
		return 0, "", false
	}
	tail, name := 0.9, "p90"
	for _, c := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.999, "p99.9"}} {
		if float64(n)*(1-c.q) >= 10 {
			tail, name = c.q, c.name
		}
	}
	return tail, name, true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around every measured phase.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mGCPauses    = "/sched/pauses/total/gc:seconds"
)

// rtSnapshot is one reading of the runtime metrics the benchmark uses.
type rtSnapshot struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	pauses               *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCPauses}}
	metrics.Read(s)
	return rtSnapshot{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauses:     s[4].Value.Float64Histogram(),
	}
}

// runtimeDelta turns two readings into the runtime.* layer metrics of
// one measured phase of ops operations.
func runtimeDelta(a, b rtSnapshot, ops int) map[string]float64 {
	out := map[string]float64{
		"runtime.alloc_mb_per_kop": float64(b.allocBytes-a.allocBytes) / mib / float64(ops) * 1000,
		"runtime.gc_cycles":        float64(b.gcCycles - a.gcCycles),
		"runtime.gc_cpu_fraction":  0,
		"runtime.gc_pause_p99_us":  0,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_fraction"] = (b.gcCPU - a.gcCPU) / cpu
	}
	// The pause histogram is cumulative; subtract bucket by bucket and
	// take the p99 bucket's upper edge (its lower edge for the last,
	// unbounded bucket).
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		want := uint64(float64(total)*0.99 + 0.5)
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= want {
				edge := b.pauses.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.pauses.Buckets[i]
				}
				out["runtime.gc_pause_p99_us"] = edge * 1e6
				break
			}
		}
	}
	return out
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / mib
}

// heapSampler records the peak heap in use while a measured phase
// runs. It polls runtime/metrics once a millisecond; stop returns the
// peak once the polling goroutine has exited.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return float64(h.peak) / mib
}
