package main

import (
	"math"
	"runtime/metrics"
	"time"

	"collabnet/internal/stats"
)

// failedLatency stands in for the latency of a request that failed or was
// refused: it misses every latency limit, so it sorts above every real
// sample and drags any percentile it reaches to "infinitely slow".
var failedLatency = math.Inf(1)

// tailPercentile is the highest whole percentile of n samples that still
// has at least ten samples beyond it, capped at 99 and floored at 50 (with
// fewer than twenty samples only the median is resolvable).
func tailPercentile(n int) float64 {
	p := math.Floor(100 * (1 - 10/float64(n)))
	return math.Max(50, math.Min(99, p))
}

// sample is one latency distribution in milliseconds. Failed requests are
// recorded as failedLatency.
type sample struct {
	xs []float64
}

func (s *sample) add(d time.Duration) { s.xs = append(s.xs, float64(d)/1e6) }
func (s *sample) fail()               { s.xs = append(s.xs, failedLatency) }
func (s *sample) n() int              { return len(s.xs) }

// pct returns the p-th percentile in milliseconds (0 for no samples).
func (s *sample) pct(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return stats.Percentile(s.xs, p)
}

// tail returns the tail percentile and which percentile it is.
func (s *sample) tail() (float64, float64) {
	p := tailPercentile(len(s.xs))
	return s.pct(p), p
}

// chunkedPct splits the samples, in recording order, into consecutive
// chunks of size (the last one takes the remainder) and returns the median
// over chunks of each chunk's p-th percentile. One stalled second then
// moves one chunk's figure rather than the whole run's. Fewer than two
// chunks' worth of samples gives the plain percentile.
func (s *sample) chunkedPct(size int, p float64) float64 {
	chunks := len(s.xs) / size
	if chunks < 2 {
		return s.pct(p)
	}
	figs := make([]float64, chunks)
	for c := range figs {
		hi := (c + 1) * size
		if c == chunks-1 {
			hi = len(s.xs)
		}
		part := sample{xs: s.xs[c*size : hi]}
		figs[c] = part.pct(p)
	}
	return median(figs)
}

// chunkedTail is chunkedPct at the tail percentile of size samples, with
// that percentile. Fewer than two chunks' worth of samples gives the plain
// tail.
func (s *sample) chunkedTail(size int) (float64, float64) {
	if len(s.xs)/size < 2 {
		return s.tail()
	}
	p := tailPercentile(size)
	return s.chunkedPct(size, p), p
}

// windowRates bins completions (time, units) into consecutive windows of
// width win from start and returns the rate of each window that ended by
// end, in units/s. A phase shorter than two windows is one window.
func windowRates(done []completion, start, end time.Time, win time.Duration) []float64 {
	n := int(end.Sub(start) / win)
	if n < 2 {
		n, win = 1, end.Sub(start)
	}
	bins := make([]float64, n)
	for _, d := range done {
		if b := int(d.at.Sub(start) / win); b >= 0 && b < n {
			bins[b] += float64(d.units)
		}
	}
	for i := range bins {
		bins[i] /= win.Seconds()
	}
	return bins
}

// completion is one finished closed-loop request and the work it did.
type completion struct {
	at    time.Time
	units int
}

// median returns the median of xs (0 for none) without modifying xs.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// histogram is a log-bucketed duration histogram with 32 buckets per
// doubling (about 2% relative resolution); it holds per-step engine times,
// which are too many to keep as spans.
type histogram struct {
	counts [64 * 32]uint64
	total  uint64
}

func (h *histogram) add(d time.Duration) {
	ns := float64(d)
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(ns) * 32)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.total++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the p-th percentile in microseconds, at the geometric
// middle of the bucket that holds it (0 when empty).
func (h *histogram) quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Exp2((float64(b)+0.5)/32) / 1e3
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's cumulative CPU and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
	at                          time.Time
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()), at: time.Now()}
}

// since returns the GC share of available CPU and the allocation rate in
// MB/s between r0 and r.
func (r runtimeSample) since(r0 runtimeSample) (gcFrac, allocMBps float64) {
	var u runtimeUse
	u.add(r0, r)
	return u.rates()
}

// runtimeUse sums the runtime counters' growth over several intervals.
type runtimeUse struct {
	gcCPU, totalCPU, allocBytes, wall float64
}

// add adds the interval from r0 to r1.
func (u *runtimeUse) add(r0, r1 runtimeSample) {
	u.gcCPU += r1.gcCPU - r0.gcCPU
	u.totalCPU += r1.totalCPU - r0.totalCPU
	u.allocBytes += r1.allocBytes - r0.allocBytes
	u.wall += r1.at.Sub(r0.at).Seconds()
}

// rates returns the GC share of available CPU and the allocation rate in
// MB/s over the summed intervals.
func (u runtimeUse) rates() (gcFrac, allocMBps float64) {
	if u.totalCPU > 0 {
		gcFrac = u.gcCPU / u.totalCPU
	}
	if u.wall > 0 {
		allocMBps = u.allocBytes / 1e6 / u.wall
	}
	return gcFrac, allocMBps
}
