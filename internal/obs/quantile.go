package obs

import "cmp"

// Quantile returns the element of sorted at quantile p/100 (0 <= p < 100),
// sorted[len(sorted)*p/100], the rule every experiment table reports its
// p50 and p99 by. It returns the zero value for an empty slice, so a run
// that completed no operations reports zeros instead of panicking.
func Quantile[T cmp.Ordered](sorted []T, p int) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	return sorted[len(sorted)*p/100]
}
