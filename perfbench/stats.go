package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of vals by linear interpolation between
// the closest ranks, or 0 for no values. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(vals)-1)
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
