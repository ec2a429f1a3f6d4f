package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 < q <= 1) of ns by the
// nearest-rank method, in the samples' own unit. It sorts ns in place and
// returns 0 for an empty slice.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	rank := int(math.Ceil(q*float64(len(ns)))) - 1
	rank = max(0, min(rank, len(ns)-1))
	return float64(ns[rank])
}

// mean returns the arithmetic mean of ns (0 when empty).
func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns))
}

// medianF returns the median of xs (0 when empty), sorting xs in place.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slices is how many rounds a measured phase is cut into: throughput
// and latency medians are taken per round and the median over the quiet
// rounds is reported, so a stall that hits one part of a run moves the
// result little. Short rounds let quietRounds set apart the stretches
// the hypervisor stole from: on the reference host, with 40 half-second
// rounds to a 20 s run, the rounds kept lost a third as much CPU time to
// steal as with 10 rounds of 2 s.
const slices = 40

// quietSteal is the share of CPU time (percent) the hypervisor may steal
// from the machine during a round for the round to count as quiet.
const quietSteal = 1.0

// sample is one operation: the round it completed in and how long it
// took (ns).
type sample struct {
	round int
	ns    int64
}

// latencies extracts the durations of ss.
func latencies(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.ns
	}
	return out
}

// quietRounds picks the rounds the end-to-end figures are taken over: the
// rounds in which the hypervisor stole at most quietSteal percent of the
// machine's CPU time or, when fewer than half were that quiet, the half
// with the least steal. Stolen time slows every layer at once, by an
// amount no change to the program explains; an unknown steal (-1) counts
// as none.
func quietRounds(rounds []round) []bool {
	keep := make([]bool, len(rounds))
	order := make([]int, len(rounds))
	quiet := 0
	for i, rd := range rounds {
		order[i] = i
		if rd.steal <= quietSteal {
			keep[i] = true
			quiet++
		}
	}
	if 2*quiet >= len(rounds) {
		return keep
	}
	sort.SliceStable(order, func(a, b int) bool { return rounds[order[a]].steal < rounds[order[b]].steal })
	for _, i := range order[:(len(rounds)+1)/2] {
		keep[i] = true
	}
	return keep
}

// roundQuantile is the median over the kept rounds of each round's
// q-quantile.
func roundQuantile(ss []sample, q float64, keep []bool) float64 {
	return perRound(ss, keep, func(ns []int64) float64 { return quantile(ns, q) })
}

// roundMean is the median over the kept rounds of each round's mean.
func roundMean(ss []sample, keep []bool) float64 {
	return perRound(ss, keep, mean)
}

// perRound is the median over the kept rounds of f applied to each
// round's durations.
func perRound(ss []sample, keep []bool, f func([]int64) float64) float64 {
	by := byRound(ss, len(keep))
	per := make([]float64, 0, len(by))
	for r, ns := range by {
		if keep[r] && len(ns) > 0 {
			per = append(per, f(ns))
		}
	}
	return medianF(per)
}

// roundMeans is each of n rounds' mean duration in µs (0 when empty).
func roundMeans(ss []sample, n int) []float64 {
	by := byRound(ss, n)
	out := make([]float64, n)
	for r, ns := range by {
		out[r] = math.Round(us(mean(ns))*10) / 10
	}
	return out
}

// byRound groups the durations of ss by round.
func byRound(ss []sample, n int) [][]int64 {
	by := make([][]int64, n)
	for _, s := range ss {
		if s.round >= 0 && s.round < n {
			by[s.round] = append(by[s.round], s.ns)
		}
	}
	return by
}

// roundRate is the median over the kept rounds of completions per
// second; counts holds each round's completions and secs its length.
func roundRate(counts []int, secs []float64, keep []bool) float64 {
	per := make([]float64, 0, len(secs))
	for i, n := range counts {
		if keep[i] && secs[i] > 0 {
			per = append(per, float64(n)/secs[i])
		}
	}
	return medianF(per)
}
