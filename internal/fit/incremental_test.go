package fit

import (
	"math"
	"testing"

	"plbhec/internal/linalg"
)

// synthSamples builds a smooth, realistic time-vs-size curve.
func synthSamples(n int) (xs, ys []float64) {
	for i := 0; i < n; i++ {
		x := float64(i+1) * 137
		xs = append(xs, x)
		ys = append(ys, 0.8+0.003*x+2e-7*x*x)
	}
	return
}

// TestNormalEqMatchesDirect checks the accumulator against a directly
// computed XᵀX / Xᵀy.
func TestNormalEqMatchesDirect(t *testing.T) {
	xs, ys := synthSamples(7)
	bases := []Basis{basisOne, basisX, basisX2}
	var ne NormalEq
	ne.Reset(3)
	row := linalg.NewVector(3)
	for k := range xs {
		for j, b := range bases {
			row[j] = b.Eval(xs[k], 1000)
		}
		ne.Add(row, ys[k])
	}
	if ne.N() != len(xs) || ne.P() != 3 {
		t.Fatalf("N=%d P=%d", ne.N(), ne.P())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var want float64
			for k := range xs {
				want += bases[i].Eval(xs[k], 1000) * bases[j].Eval(xs[k], 1000)
			}
			if got := ne.ata.At(i, j); got != want {
				t.Errorf("ata[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
		var want float64
		for k := range xs {
			want += bases[i].Eval(xs[k], 1000) * ys[k]
		}
		if got := ne.aty[i]; got != want {
			t.Errorf("aty[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestIncrementalMatchesBatch is the core invariant: a Fitter fed the
// stream incrementally (refitting after every new sample) must produce the
// exact same model as a fresh Fitter fed everything at once — bit-identical
// coefficients, not just close ones, because both fold the same samples in
// the same order into the same accumulators.
func TestIncrementalMatchesBatch(t *testing.T) {
	xs, ys := synthSamples(12)
	inc := NewFitter()
	const horizon = 50000.0
	for n := 3; n <= len(xs); n++ {
		mi, err := inc.Fit(xs[:n], ys[:n], horizon)
		if err != nil {
			t.Fatalf("incremental fit at n=%d: %v", n, err)
		}
		mb, err := NewFitter().Fit(xs[:n], ys[:n], horizon)
		if err != nil {
			t.Fatalf("batch fit at n=%d: %v", n, err)
		}
		if len(mi.Coef) != len(mb.Coef) {
			t.Fatalf("n=%d: set mismatch: %v vs %v", n, mi, mb)
		}
		for j := range mi.Coef {
			if mi.Coef[j] != mb.Coef[j] {
				t.Errorf("n=%d coef[%d]: incremental %v != batch %v",
					n, j, mi.Coef[j], mb.Coef[j])
			}
		}
		if mi.R2 != mb.R2 || mi.Scale != mb.Scale {
			t.Errorf("n=%d: R2/Scale mismatch: %v vs %v", n, mi, mb)
		}
	}
}

// TestFitterHistoryRewrite: rescaling the sample history (what
// profile.Sampler.ScaleTimes does on a QoS change) must transparently
// restart the accumulation and still match a batch fit.
func TestFitterHistoryRewrite(t *testing.T) {
	xs, ys := synthSamples(8)
	f := NewFitter()
	if _, err := f.Fit(xs, ys, 20000); err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(ys))
	for i, y := range ys {
		scaled[i] = y * 2.5
	}
	mi, err := f.Fit(xs, scaled, 20000)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewFitter().Fit(xs, scaled, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for j := range mi.Coef {
		if mi.Coef[j] != mb.Coef[j] {
			t.Errorf("coef[%d]: %v != %v after history rewrite", j, mi.Coef[j], mb.Coef[j])
		}
	}
}

// TestFitterLine checks the incremental transfer fit against the
// closed-form least-squares line.
func TestFitterLine(t *testing.T) {
	xs := []float64{100, 250, 400, 800, 1600}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3e-6*x + 0.002
	}
	f := NewFitter()
	for n := 2; n <= len(xs); n++ {
		l, err := f.Line(xs[:n], ys[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if math.Abs(l.A1-3e-6) > 1e-12 || math.Abs(l.A2-0.002) > 1e-9 {
			t.Errorf("n=%d: got a1=%v a2=%v", n, l.A1, l.A2)
		}
	}
}

// TestWarmRefitZeroAlloc enforces the PR's hot-path invariant: once a
// Fitter has seen a stream, refitting it (the per-round profiling refit)
// performs zero heap allocations — the normal equations, the equilibrated
// Cholesky solve, and the model scoring all run in reused workspace.
func TestWarmRefitZeroAlloc(t *testing.T) {
	xs, ys := synthSamples(10)
	f := NewFitter()
	if _, err := f.Fit(xs, ys, 30000); err != nil {
		t.Fatal(err)
	}
	txs := []float64{128, 256, 512, 1024}
	tys := []float64{0.001, 0.0018, 0.0034, 0.0066}
	if _, err := f.Line(txs, tys); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Fit(xs, ys, 30000); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Line(txs, tys); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm refit allocates %v times per round, want 0", allocs)
	}
}

// TestWarmGrowthConstantAlloc: appending one sample and refitting must not
// rebuild anything — the only allocations permitted are the amortized
// growth of the Fitter's own history copy.
func TestWarmGrowthConstantAlloc(t *testing.T) {
	xs, ys := synthSamples(64)
	f := NewFitter()
	if _, err := f.Fit(xs[:8], ys[:8], 30000); err != nil {
		t.Fatal(err)
	}
	before := f.accs[0].ne.N()
	if _, err := f.Fit(xs[:9], ys[:9], 30000); err != nil {
		t.Fatal(err)
	}
	after := f.accs[0].ne.N()
	if after-before != 1 {
		t.Fatalf("incremental fold added %d rows, want 1 (no rebuild)", after-before)
	}
}

// scaleStream is a GPU-like saturating time curve sampled as on a
// thousand-PU cluster: probing rounds from 16 to 1,024 units, then
// execution blocks of a few hundred. Fitted with a horizon of millions of
// units, eˣ/s is nearly collinear with {1, x} over the samples, so the
// normal equations of such sets fail and they fall back to QR.
func scaleStream() (xs, ys []float64) {
	for x := 16.0; x <= 1024; x *= 2 {
		xs = append(xs, x)
	}
	xs = append(xs, 350, 350, 350)
	for _, x := range xs {
		ys = append(ys, 2e-4*x*(150+x)/(33+x)+0.01)
	}
	return xs, ys
}

// TestWarmQRFallbackZeroAlloc: a warm refit whose candidate sets take the
// QR fallback allocates nothing; the design matrix and factorization live
// in the Fitter's Scratch.
func TestWarmQRFallbackZeroAlloc(t *testing.T) {
	xs, ys := scaleStream()
	const horizon = 4 << 20
	f := NewFitter()
	if _, err := f.Fit(xs, ys, horizon); err != nil {
		t.Fatal(err)
	}
	if f.sc.design.Rows == 0 {
		t.Fatal("no candidate set fell back to QR; the test lost its coverage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Fit(xs, ys, horizon); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm refit with the QR fallback allocates %v times, want 0", allocs)
	}
}
