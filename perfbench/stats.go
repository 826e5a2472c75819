package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default exclusive method. With fewer than two values every cut is
// that value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// percentile returns the nearest-rank p-quantile of xs and whether it
// meets the sample-count rule (at least minBeyond samples beyond it).
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], beyond(len(s), p) >= minBeyond
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a closed-open time span [lo, hi) in monotonic nanoseconds.
type interval struct{ lo, hi int64 }

func (iv interval) len() int64 {
	if iv.hi < iv.lo {
		return 0
	}
	return iv.hi - iv.lo
}

// unionLen returns the length of the union of ivs clipped to clip: the
// time inside clip that at least one interval covers.
func unionLen(ivs []interval, clip interval) int64 {
	cl := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, clip.lo), min(iv.hi, clip.hi)
		if hi > lo {
			cl = append(cl, interval{lo, hi})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].lo < cl[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range cl {
		if iv.lo > cur.hi {
			total += cur.len()
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.len()
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.len() - unionLen(children, parent)
}
