package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank,
// or 0 for an empty sample. Every latency in the benchmark goes
// through here from its exact per-request samples; nothing is
// bucketed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// groupQuantile splits time-ordered samples into at most maxGroups
// consecutive groups of at least minGroup samples each and returns the
// median over groups of each group's q-quantile. A run with fewer
// than two groups' worth is one group. The median across groups keeps
// a burst of outside interference from setting the run's tail.
func groupQuantile(xs []float64, q float64) float64 {
	const minGroup, maxGroups = 5000, 10
	k := min(max(len(xs)/minGroup, 1), maxGroups)
	size := len(xs) / k
	var per []float64
	for g := 0; g < k; g++ {
		end := (g + 1) * size
		if g == k-1 {
			end = len(xs)
		}
		per = append(per, quantile(xs[g*size:end], q))
	}
	return median(per)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise reads 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSSMB returns this process's peak resident set size in MB.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
