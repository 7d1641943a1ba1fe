package main

import (
	"math"
	"sort"
	"time"
)

// A reported rate or percentile is taken over short parts of the
// measurement rather than over all of it, and is the value of the part
// at the fast twentieth: the 5% quantile of the parts' latencies, the
// 95% quantile of their rates. The host the benchmark was sized on (2
// shared vCPUs) slowed memory-bound work by up to 1.5× for tens of
// seconds at a time under its neighbours' load, while a pure ALU loop
// moved by 10%. A run's median or whole-run percentile moved with its
// share of slow time; the fast twentieth of half-second parts reads the
// program's speed in the host's least contended moments, which a run
// long enough to span several of the host's phases includes. Parts are cut by time, partSpan each
// (in-process loops: inProcessSpan of busy time), but never so short
// that a part holds fewer than minPartSamples operations, so that each
// part's p90 has ten samples beyond it.
const (
	partSpan       = 500 * time.Millisecond
	inProcessSpan  = 100 * time.Millisecond
	minPartSamples = 100
	maxParts       = 400
	fastQ          = 0.05
)

// sample is one timed operation: when it completed, measured from the
// start of its window (for in-process loops: the busy time so far), and
// how long it took.
type sample struct {
	at time.Duration
	us float64
}

// latencies collects the timed operations of one kind.
type latencies []sample

func (l *latencies) add(at time.Duration, us float64) { *l = append(*l, sample{at, us}) }

// percentile returns the nearest-rank q-quantile (q in (0,1]) of the
// durations. Empty input yields 0.
func (l latencies) percentile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	vs := make([]float64, len(l))
	for i, s := range l {
		vs[i] = s.us
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(i, 0)]
}

// figures are the robust summary of one kind of operation.
type figures struct{ rate, p50, p90, p99 float64 }

// put stores the latency percentiles of f under name: p50 and p90 as
// end-to-end metrics, p99 as a detail the run prints but does not bound.
func (f figures) put(v values, name string) {
	v[name+"_p50_us"], v[name+"_p90_us"], v["tail."+name+"_p99_us"] = f.p50, f.p90, f.p99
}

// robust cuts l into consecutive parts of about each by completion
// time over span, as many as its size allows, and returns the fast
// twentieth over the parts of the rate (operations per second) and of
// each percentile.
func (l latencies) robust(span, each time.Duration) figures {
	n := min(int(span/max(each, 1)), len(l)/minPartSamples, maxParts)
	n = max(n, 1)
	parts := make([]latencies, n)
	spans := make([]time.Duration, n)
	for i := range spans {
		spans[i] = span / time.Duration(n)
	}
	for _, s := range l {
		i := min(int(int64(s.at)*int64(n)/int64(max(span, 1))), n-1)
		parts[i] = append(parts[i], s)
	}
	return summarize(parts, spans)
}

// summarize returns the fast twentieth over parts of their rate (each
// part lasting its span) and percentiles.
func summarize(parts []latencies, spans []time.Duration) figures {
	var rates, p50s, p90s, p99s []float64
	for i, p := range parts {
		rates = append(rates, perSecond(len(p), spans[i]))
		p50s = append(p50s, p.percentile(0.50))
		p90s = append(p90s, p.percentile(0.90))
		p99s = append(p99s, p.percentile(0.99))
	}
	return figures{fastRate(rates), fastTime(p50s), fastTime(p90s), fastTime(p99s)}
}

// timer records back-to-back in-process operations, stamping each with
// the busy time so far, so that robust splits them by work done.
type timer struct {
	lat  latencies
	busy time.Duration
}

func (t *timer) record(d time.Duration) {
	t.busy += d
	t.lat.add(t.busy, float64(d.Nanoseconds())/1e3)
}

func (t *timer) robust() figures { return t.lat.robust(t.busy, inProcessSpan) }

// passFigures summarises timed passes over one fixed battery, each pass
// one part.
func passFigures(ts []timer) figures {
	parts := make([]latencies, len(ts))
	spans := make([]time.Duration, len(ts))
	for i, t := range ts {
		parts[i], spans[i] = t.lat, t.busy
	}
	return summarize(parts, spans)
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), without modifying vs.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// fastTime is the fast twentieth of repeated timings: their 5% quantile.
func fastTime(vs []float64) float64 { return quantile(vs, fastQ) }

// fastRate is the fast twentieth of repeated rates: their 95% quantile.
func fastRate(vs []float64) float64 { return quantile(vs, 1-fastQ) }

// quantile returns the q-quantile of vs, interpolating linearly between
// order statistics, without modifying vs. Empty input yields 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

// buildRate combines the chunk rates of repeated builds of one sequence
// (builds[b][j] is the insert rate of chunk j of build b): each chunk
// position is taken at the fast twentieth of its rates across the
// builds, and the result is the rate of a build whose every chunk ran at
// that speed. Chunks fill a growing tree, so early ones run faster than
// late ones; comparing each chunk only with the same chunk of other
// builds keeps the whole sequence in the figure. Chunks at one position
// hold the same number of objects, and all but the last position hold
// equally many.
func buildRate(builds [][]float64) float64 {
	n := 0
	for _, b := range builds {
		n = max(n, len(b))
	}
	var perObject float64 // seconds per object, summed over positions
	for j := 0; j < n; j++ {
		var at []float64
		for _, b := range builds {
			if j < len(b) {
				at = append(at, b[j])
			}
		}
		perObject += 1 / fastRate(at)
	}
	return ratio(float64(n), perObject)
}

// perSecond is n operations over d as a rate; 0 for an empty interval.
func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// ratio is a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
