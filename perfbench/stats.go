package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. Nearest rank always returns a measured
// value, never an interpolation between two runs. xs is not modified;
// an empty slice gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples
// for an even count, so a run's reported value does not depend on
// which of two central reps came first.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range over the median, the statistic a
// benchmark bound is judged against. It uses the same exclusive
// quartile method as Python's statistics.quantiles(xs, n=4).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-based.
		m := float64(len(s) + 1)
		pos := float64(k) * m / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// perNodeSecond normalizes a count to one simulated node-second: the
// unit that makes fleets of different sizes and horizons comparable.
func perNodeSecond(count float64, nodes int, horizonS float64) float64 {
	ns := float64(nodes) * horizonS
	if ns <= 0 {
		return 0
	}
	return count / ns
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest hashes a deterministic report rendering. Two runs of the same
// workload and seed must produce the same digest whatever the driver
// width, tracing, or host speed.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// checkDigest compares a run's digest against the workload's
// reference digest at the same seed and names the mismatch.
func checkDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: report digest %s differs from reference %s", what, got, want)
	}
	return nil
}
