package main

import (
	"sort"
	"time"
)

// pct is one reported percentile: its value, how many samples it was
// taken over, and how many samples lie beyond it. A tail percentile is
// only trustworthy with at least ten samples beyond it, so the count is
// recorded beside every value.
type pct struct {
	Name    string  `json:"name"`
	P       float64 `json:"p"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// quantile returns the nearest-rank q-quantile of ds in milliseconds
// with its sample count and the number of
// samples strictly above its rank.
func quantile(name string, ds []time.Duration, q float64) pct {
	p := pct{Name: name, P: q, Unit: "ms", Samples: len(ds)}
	if len(ds) == 0 {
		return p
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(q*float64(len(ds))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(ds) {
		rank = len(ds) - 1
	}
	p.Value = ms(ds[rank])
	p.Beyond = len(ds) - 1 - rank
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (xs is sorted in place); 0 when empty.
func median(xs []float64) float64 {
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

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 is a stateless mixer: the benchmark uses it to pick seeded
// samples by index without consuming the stream generators' RNGs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// windowLen is the length of the time windows a measured read or
// extraction phase is cut into (see windowed). A median over windows
// keeps a burst of interference confined to a few of them from moving
// the run's figure.
const windowLen = 1500 * time.Millisecond

// windowsIn returns how many windowLen windows fit in elapsed, at
// least one.
func windowsIn(elapsed time.Duration) int {
	return max(1, int(elapsed/windowLen))
}

// windowed cuts a phase of length elapsed into n equal time windows by
// each sample's completion time and returns each window's q-quantile
// latency (ms; empty windows are skipped) and completion rate (1/s).
func windowed(lat, at []time.Duration, elapsed time.Duration, n int, q float64) (lats, rates []float64) {
	w := elapsed / time.Duration(n)
	if w <= 0 {
		return nil, nil
	}
	buckets := make([][]time.Duration, n)
	for i, d := range lat {
		b := int(at[i] / w)
		if b >= n {
			b = n - 1
		}
		buckets[b] = append(buckets[b], d)
	}
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/w.Seconds())
		if len(b) > 0 {
			lats = append(lats, quantile("", b, q).Value)
		}
	}
	return lats, rates
}
