package main

import (
	"fmt"
	"math"
	"sort"

	"plbhec/internal/starpu"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tail is one percentile read from a sample set under the benchmark's
// percentile rule, with the percentile actually used and the sample count.
type tail struct {
	Value float64
	Pct   float64 // percentile actually reported, in (0, 100]
	N     int     // number of samples
}

// percentile reads the nearest-rank p-quantile (0 < p < 1) of xs, which it
// sorts in place. A percentile is reported only if at least minTail samples
// lie beyond it; otherwise the highest percentile that has them is reported
// instead. With too few samples for any such percentile, the median is
// reported and N tells the reader how little it rests on.
func percentile(xs []float64, p float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(n))) - 1 // nearest-rank index
	if k < 0 {
		k = 0
	}
	if limit := n - 1 - minTail; k > limit {
		k = limit
		if k < 0 {
			k = (n - 1) / 2
		}
	}
	return tail{Value: xs[k], Pct: 100 * float64(k+1) / float64(n), N: n}
}

// median returns the median of xs without reordering it.
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

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// recordGaps returns, in microseconds of engine time, the gap between each
// block's ExecEnd and the ExecStart of the next block on the same unit
// (dispatch), and between each block's ExecEnd and the SubmitTime of the
// next block on the same unit (the scheduler's return to that unit). Blocks
// are taken per unit in ExecStart order.
func recordGaps(recs []starpu.TaskRecord) (dispatch, ret []float64) {
	byPU := map[int][]starpu.TaskRecord{}
	for _, r := range recs {
		byPU[r.PU] = append(byPU[r.PU], r)
	}
	for _, rs := range byPU {
		sort.Slice(rs, func(i, j int) bool { return rs[i].ExecStart < rs[j].ExecStart })
		for i := 1; i < len(rs); i++ {
			dispatch = append(dispatch, 1e6*(rs[i].ExecStart-rs[i-1].ExecEnd))
			ret = append(ret, 1e6*(rs[i].SubmitTime-rs[i-1].ExecEnd))
		}
	}
	return dispatch, ret
}

// String describes which percentile was read from how many samples.
func (t tail) String() string {
	return fmt.Sprintf("p%.4g of %d samples", t.Pct, t.N)
}
