package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsMs converts call timings to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// paramsDigest hashes the exact bits of a parameter vector.
func paramsDigest(v tensor.Vector) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bitwiseEqual reports whether two vectors hold identical bits.
func bitwiseEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
