package sched

import (
	"math"
	"math/rand"
	"testing"
)

// scanOverThreshold is the O(PUs) threshold scan that overThreshold
// replaced: compare the finishing unit's duration with every other unit's
// last full-block duration.
func scanOverThreshold(p *PLBHeC, pu int, dur, thr float64) bool {
	for j, d := range p.lastDur {
		if j == pu || d == 0 || p.blockUnits[j] < 0.5 {
			continue
		}
		if math.Abs(dur-d) > thr {
			return true
		}
	}
	return false
}

// TestOverThresholdMatchesScan drives the duration range through random
// completions and block-size rewrites, as the scheduler does, and requires
// the tree's decision to equal the scan's at every completion. Durations
// include zero, +Inf and NaN; units die (block size 0) and come back; the
// cluster sizes include n = 1.
func TestOverThresholdMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	durs := []float64{0, math.Inf(1), math.NaN(), 1, 1.05, 2, 1e-9}
	for _, n := range []int{1, 2, 3, 7, 64, 100} {
		p := &PLBHeC{lastDur: make([]float64, n), blockUnits: make([]float64, n)}
		p.sumRound()
		overs := 0
		for step := 0; step < 4000; step++ {
			if r.Intn(50) == 0 {
				// A new distribution: every unit gets a block (some none,
				// as a dead unit or a zero share does) and the last
				// durations reset, as in submitBlocks and the drain.
				for i := range p.blockUnits {
					p.blockUnits[i] = []float64{0, 0.4, 0.5, 8, 300}[r.Intn(5)]
					p.lastDur[i] = 0
				}
				p.sumRound()
				continue
			}
			if r.Intn(40) == 0 {
				// A unit dies: scanFailures zeroes its block size.
				p.blockUnits[r.Intn(n)] = 0
				p.sumRound()
				continue
			}
			pu := r.Intn(n)
			dur := durs[r.Intn(len(durs))]
			if r.Intn(2) == 0 {
				dur = 1 + r.Float64()
			}
			p.lastDur[pu] = dur
			p.durs.set(pu, p.thresholdEntry(pu))
			thr := []float64{0, 0.1, 0.5, math.Inf(1)}[r.Intn(4)]
			want := scanOverThreshold(p, pu, dur, thr)
			if got := p.overThreshold(dur, thr); got != want {
				t.Fatalf("n=%d step %d: pu %d dur %v thr %v: tree says %v, scan %v (lastDur %v, blocks %v)",
					n, step, pu, dur, thr, got, want, p.lastDur, p.blockUnits)
			}
			if want {
				overs++
			}
		}
		if n > 1 && overs == 0 {
			t.Errorf("n=%d: no completion crossed the threshold; the test lost its coverage", n)
		}
	}
}
