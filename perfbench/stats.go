package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether the sample supports it, i.e. at least minTail samples lie above
// the rank. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// highestSupported returns the highest of the candidate percentiles (in
// ascending order) that the sample supports, with its value.
func highestSupported(xs []float64, candidates ...float64) (p, v float64, ok bool) {
	for _, c := range candidates {
		if x, good := percentile(xs, c); good {
			p, v, ok = c, x, true
		}
	}
	return p, v, ok
}

// median returns the middle value of xs (mean of the two middle values for
// even lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// schedule is an open-loop arrival schedule: record i of every source task
// is due at start + i*period, whatever the system under test is doing.
type schedule struct {
	start  time.Time
	period time.Duration
}

// newSchedule paces each of tasks source tasks at an equal share of rate
// records per second.
func newSchedule(start time.Time, rate float64, tasks int) schedule {
	return schedule{start: start, period: time.Duration(float64(time.Second) * float64(tasks) / rate)}
}

// due is the time record i of a source task was due.
func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(i) * s.period)
}

// latencyMS is the time from record i's due time to at, in milliseconds.
// It depends only on i, so a record replayed after a restore keeps the due
// time of its first emission.
func (s schedule) latencyMS(i int64, at time.Time) float64 {
	return float64(at.Sub(s.due(i))) / 1e6
}

// lagMS is how late the generator ran when it emitted record i at at, in
// milliseconds; an emission on or before schedule has no lag.
func (s schedule) lagMS(i int64, at time.Time) float64 {
	if d := at.Sub(s.due(i)); d > 0 {
		return float64(d) / 1e6
	}
	return 0
}

// firstIndexAtOrAfter returns the smallest i with times[i] >= t, or
// len(times) if none: for an ascending event-time table it finds the first
// record whose event time reaches t.
func firstIndexAtOrAfter(times []int64, t int64) int {
	return sort.Search(len(times), func(i int) bool { return times[i] >= t })
}

// digest is an order-independent multiset hash: the wrapping sum of one
// 64-bit hash per element, weighted by multiplicity, plus the total
// multiplicity. A lost element lowers both, a duplicate raises both, and a
// changed element moves the sum.
type digest struct {
	Sum   uint64 `json:"sum"`
	Count int64  `json:"count"`
}

// add folds weight copies of the element hashed to h.
func (d *digest) add(h uint64, weight int64) {
	d.Sum += h * uint64(weight)
	d.Count += weight
}

// merge folds another digest in.
func (d *digest) merge(o digest) {
	d.Sum += o.Sum
	d.Count += o.Count
}

// failedAgainst returns how many operations a digest mismatch accounts for:
// zero when equal, the count difference when counts differ, and one when
// equal counts hide changed elements.
func (d digest) failedAgainst(want digest) int64 {
	if d == want {
		return 0
	}
	if diff := d.Count - want.Count; diff != 0 {
		if diff < 0 {
			return -diff
		}
		return diff
	}
	return 1
}

// mix64 is the splitmix64 finalizer, a bijective 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashRecord hashes a (key, value, time) triple.
func hashRecord(key string, value, t int64) uint64 {
	return mix64(hashString(key) ^ mix64(uint64(value)+0x9e3779b97f4a7c15) ^ mix64(uint64(t)))
}
