package profile

import (
	"fmt"
	"testing"
)

// clusterSampler fills a sampler for n units the way PLB-HeC's profiling
// rounds on a large cluster do: geometric probes from 16 units, then a few
// execution blocks, on alternating CPU-like (linear) and GPU-like
// (saturating) units with distinct speeds. Fitted against a horizon of
// millions of units, some candidate sets of every unit take the QR fallback.
func clusterSampler(n int) *Sampler {
	s := NewSampler(n)
	for pu := 0; pu < n; pu++ {
		speed := 1 + float64(pu%7)/3
		var sizes []float64
		for x := 16.0; x <= 1024; x *= 2 {
			sizes = append(sizes, x)
		}
		sizes = append(sizes, 350, 350, 350)
		for _, x := range sizes {
			t := 2e-3 * x / speed
			if pu%5 != 0 {
				t = 2e-4*x*(150+x)/(33+x)/speed + 0.01
			}
			s.Add(pu, x, t, 1e-6*x+1e-4)
		}
	}
	return s
}

const clusterHorizon = 4 << 20

// TestFitAllConstantAlloc: a warm FitAll allocates only what it returns —
// the Models.PU and RMSE slices and one Coef copy per unit. The fitters,
// their accumulations and the shared fit.Scratch are all reused.
func TestFitAllConstantAlloc(t *testing.T) {
	const n = 64
	s := clusterSampler(n)
	if _, err := s.FitAll(clusterHorizon); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.FitAll(clusterHorizon); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(n + 2); allocs != want {
		t.Fatalf("warm FitAll of %d units allocates %v times, want %v", n, allocs, want)
	}
}

// BenchmarkFitAll times a warm FitAll, the refit every PLB-HeC rebalance
// runs, on the Table I cluster's size and on a thousand-PU one.
func BenchmarkFitAll(b *testing.B) {
	for _, n := range []int{8, 3000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := clusterSampler(n)
			if _, err := s.FitAll(clusterHorizon); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.FitAll(clusterHorizon); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
