package main

import (
	"math"
	"sort"
)

// pctl returns the q-quantile (0..1) of ns samples by nearest rank, in µs.
// Samples are sorted in place.
func pctl(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(math.Ceil(q*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ns[i]) / 1e3
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolated the way Python's statistics.quantiles(n=4) does.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(m int) float64 { // exclusive method, cut point m of 4
		pos := float64(m) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), median(s), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
