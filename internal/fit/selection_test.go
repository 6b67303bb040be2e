package fit

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"plbhec/internal/linalg"
)

// oracleFit is the exhaustive index-order selector that Fitter.Fit's pruned
// scan must reproduce bit for bit. It fits every candidate set from scratch
// with closure-evaluated design rows (equilibrated normal equations, then
// linalg.LeastSquares on a Cholesky failure), scores each by AdjR² − 0.002·p
// minus 1 when not monotone over [min(xs), useHi], runs the monotonicity
// check on every candidate, and keeps the first strict improvement in index
// order. nonFinite counts candidates whose score was NaN or −Inf.
func oracleFit(xs, ys []float64, useHi float64) (m Model, nonFinite int, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Model{}, 0, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Model{}, 0, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Model{}, 0, ErrDegenerate
	}
	lo, hi := minMax(xs)
	if useHi < hi {
		useHi = hi
	}
	if scale < useHi {
		scale = useHi
	}
	var ws neSolver
	var best Model
	bestScore := math.Inf(-1)
	found := false
	for _, bases := range candidateSets {
		p := len(bases)
		if len(xs) <= p {
			continue
		}
		var ne NormalEq
		ne.Reset(p)
		row := linalg.NewVector(p)
		for k, x := range xs {
			for j, b := range bases {
				row[j] = b.Eval(x, scale)
			}
			ne.Add(row, ys[k])
		}
		coef := linalg.NewVector(p)
		var c Model
		if ws.solve(&ne, coef) != nil {
			var qerr error
			if c, qerr = oracleQR(bases, xs, ys, scale); qerr != nil {
				continue
			}
		} else {
			if !coef.IsFinite() {
				continue
			}
			c = Model{Bases: bases, Coef: coef, Scale: scale}
			c.R2, c.AdjR2 = oracleR2(c, xs, ys)
		}
		score := c.AdjR2 - 0.002*float64(p)
		if !c.MonotoneNonDecreasing(lo, useHi) {
			score -= 1
		}
		if math.IsNaN(score) || math.IsInf(score, -1) {
			nonFinite++
		}
		if score > bestScore {
			best, bestScore, found = c, score, true
		}
	}
	if !found {
		m, err = oracleQR([]Basis{basisOne, basisX}, xs, ys, scale)
		return m, nonFinite, err
	}
	return best, nonFinite, nil
}

// oracleQR is the allocating QR fit of one basis set over closure-evaluated
// design rows.
func oracleQR(bases []Basis, xs, ys []float64, scale float64) (Model, error) {
	a := linalg.NewMatrix(len(xs), len(bases))
	for i, x := range xs {
		for j, b := range bases {
			a.Set(i, j, b.Eval(x, scale))
		}
	}
	coef, err := linalg.LeastSquares(a, linalg.Vector(ys))
	if err != nil {
		return Model{}, err
	}
	if !coef.IsFinite() {
		return Model{}, ErrDegenerate
	}
	m := Model{Bases: bases, Coef: coef, Scale: scale}
	m.R2, m.AdjR2 = oracleR2(m, xs, ys)
	return m, nil
}

// oracleR2 computes R² and adjusted R² with closure evaluation of m.
func oracleR2(m Model, xs, ys []float64) (r2, adj float64) {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i, x := range xs {
		d := ys[i] - m.Eval(x)
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes < 1e-18 {
			return 1, 1
		}
		return 0, 0
	}
	r2 = 1 - ssRes/ssTot
	n := float64(len(xs))
	den := n - float64(len(m.Bases)) - 1
	if den <= 0 {
		return r2, r2
	}
	return r2, 1 - (1-r2)*(n-1)/den
}

// sameModel reports whether two fitted models are bit-identical: the same
// bases in the same order and the same Coef, Scale, R² and AdjR² bits.
func sameModel(a, b Model) bool {
	if len(a.Bases) != len(b.Bases) || len(a.Coef) != len(b.Coef) {
		return false
	}
	for j := range a.Bases {
		if a.Bases[j].Name != b.Bases[j].Name {
			return false
		}
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return math.Float64bits(a.Scale) == math.Float64bits(b.Scale) &&
		math.Float64bits(a.R2) == math.Float64bits(b.R2) &&
		math.Float64bits(a.AdjR2) == math.Float64bits(b.AdjR2)
}

// checkAgainstOracle refits f on (xs, ys, useHi) and compares the result
// with the oracle; it returns the oracle's non-finite score count.
func checkAgainstOracle(t *testing.T, f *Fitter, xs, ys []float64, useHi float64) int {
	t.Helper()
	want, nonFinite, werr := oracleFit(xs, ys, useHi)
	got, gerr := f.Fit(xs, ys, useHi)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("n=%d useHi=%g: Fit err %v, oracle err %v", len(xs), useHi, gerr, werr)
	}
	if werr == nil && !sameModel(got, want) {
		t.Fatalf("n=%d useHi=%g xs=%v ys=%v:\n Fit    %v coef=%v adj=%v\n oracle %v coef=%v adj=%v",
			len(xs), useHi, xs, ys, got, got.Coef, got.AdjR2, want, want.Coef, want.AdjR2)
	}
	return nonFinite
}

// randomStream draws one profiling-like sample stream: geometric or uniform
// sizes (sometimes including 0), times from one of several shapes with
// optional noise, so the winning candidate varies across draws.
func randomStream(r *rand.Rand, n int) (xs, ys []float64) {
	base := math.Ldexp(1, r.Intn(10))
	shape := r.Intn(7)
	noise := 0.0
	if r.Intn(2) == 0 {
		noise = math.Pow(10, -1-3*r.Float64())
	}
	for i := 0; i < n; i++ {
		var x float64
		switch {
		case i == 0 && r.Intn(5) == 0:
			x = 0
		case r.Intn(2) == 0:
			x = base * math.Ldexp(1, i)
		default:
			x = math.Floor(base * (1 + 64*r.Float64()))
		}
		var y float64
		switch shape {
		case 0:
			y = 0.002*x + 0.3
		case 1:
			y = 0.5*math.Log(x+1) + 0.01*x
		case 2:
			y = 1e-6*x*x + 0.001*x
		case 3:
			y = 0.001 * x * (150 + x) / (33 + x)
		case 4:
			y = 5 - 0.001*x // decreasing: every candidate is non-monotone
		case 5:
			y = math.Sqrt(x + 1)
		default:
			y = 2 + math.Sin(x/50)
		}
		y *= 1 + noise*r.NormFloat64()
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// TestFitMatchesOracle: the pruned selector returns the oracle's model for
// random streams refitted incrementally with moving horizons, the profiling
// pattern (the same Fitter sees every prefix).
func TestFitMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		xs, ys := randomStream(r, 2+r.Intn(15))
		f := NewSharedFitter(&sc)
		for n := 2; n <= len(xs); n++ {
			useHi := xs[n-1] * math.Ldexp(1, r.Intn(12))
			checkAgainstOracle(t, f, xs[:n], ys[:n], useHi)
		}
	}
}

// TestFitOracleTies: constant times give every candidate R² = AdjR² = 1, so
// candidates with the same coefficient count tie exactly and the lowest
// index must win, as in the index-order scan. Non-monotone winners and a
// monotone winner ranked below a non-monotone top candidate are covered by
// the decreasing and saturating streams.
func TestFitOracleTies(t *testing.T) {
	xs := []float64{16, 32, 64, 128, 256, 512}
	streams := [][]float64{
		{3, 3, 3, 3, 3, 3},
		{0, 0, 0, 0, 0, 0},
		{10, 9, 8, 7, 6, 5},
		apply(xs, func(x float64) float64 { return 0.001 * x * (150 + x) / (33 + x) }),
	}
	for _, ys := range streams {
		for _, useHi := range []float64{512, 4096, 1 << 20} {
			checkAgainstOracle(t, NewFitter(), xs, ys, useHi)
		}
	}
	// Exact ties: {1, x} and {1, ln x} both have p = 2.
	m, err := NewFitter().Fit(xs, streams[0], 4096)
	if err != nil || m.Bases[1].Name != "x" {
		t.Fatalf("constant data picked %v (%v), want the first p=2 set {1, x}", m, err)
	}
}

// TestFitOracleNonFiniteScores: samples near the float64 range overflow the
// sums of squares, so some candidates score NaN or −Inf; they must never
// win, and the result must still match the oracle.
func TestFitOracleNonFiniteScores(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32, 64}
	seen := 0
	for _, mag := range []float64{1e150, 1e160, 1e200, 1e300} {
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = mag * float64(1-2*(i%2)) * float64(i+1)
		}
		seen += checkAgainstOracle(t, NewFitter(), xs, ys, 128)
	}
	if seen == 0 {
		t.Fatal("no stream produced a NaN or −Inf candidate score; the test lost its coverage")
	}
}

// TestPickMatchesIndexOrderScan checks the pruned selection rule on its
// own, with synthetic scores: pick must return what the index-order scan
// with a strict improvement returns. The score pool holds exact ties, pairs
// whose penalized scores collide only after rounding (−3 and −3 − 4.4e-16
// both become −4; 1e-17 and 2e-17 both become −1), and 0.5, which ties a
// monotone −0.5 once penalized, so the tie-break on index is exercised in
// both orders.
func TestPickMatchesIndexOrderScan(t *testing.T) {
	pool := []float64{0.5, -0.5, 0.994, 0.996, -3, -3 - 4.4e-16, 1e-17, 2e-17, 0, 1}
	r := rand.New(rand.NewSource(1))
	score := make([]float64, len(candidateSets))
	mono := make([]bool, len(candidateSets))
	for trial := 0; trial < 20000; trial++ {
		var order []int
		want, wantScore := -1, math.Inf(-1)
		for i := range score {
			if r.Intn(4) == 0 {
				continue // a skipped or failed candidate
			}
			score[i], mono[i] = pool[r.Intn(len(pool))], r.Intn(2) == 0
			order = rank(order, i, score)
			s := score[i]
			if !mono[i] {
				s -= 1
			}
			if s > wantScore {
				want, wantScore = i, s
			}
		}
		checks := 0
		got := pick(order, score, func(i int) bool { checks++; return mono[i] })
		if got != want {
			t.Fatalf("trial %d: order %v scores %v monotone %v: pick %d, scan %d",
				trial, order, score, mono, got, want)
		}
		if checks > len(order) {
			t.Fatalf("pick checked %d candidates of %d", checks, len(order))
		}
	}
}

// FuzzFitterSelection feeds arbitrary sample streams through a Fitter
// (a prefix, then the whole stream, so the incremental path runs) and
// requires the oracle's model bit for bit.
func FuzzFitterSelection(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(4096, 8, 0.1, 16, 0.2, 32, 0.41, 64, 0.8, 128, 1.7))
	f.Add(seed(1e6, 0, 3, 1, 3, 2, 3, 4, 3, 8, 3))
	f.Add(seed(100, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6, 0))
	f.Add(seed(1<<22, 16, 1e-3, 1024, 0.02, 65536, 1.5, 1<<20, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8*5 {
			return
		}
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		useHi := vals[0]
		var xs, ys []float64
		for i := 1; i+1 < len(vals) && len(xs) < 24; i += 2 {
			xs = append(xs, vals[i])
			ys = append(ys, vals[i+1])
		}
		if len(xs) < 2 {
			return
		}
		ft := NewFitter()
		mid := len(xs) / 2
		if mid >= 2 {
			checkAgainstOracle(t, ft, xs[:mid], ys[:mid], useHi)
		}
		checkAgainstOracle(t, ft, xs, ys, useHi)
	})
}

// TestFeatureTableMatchesBases: every feature-table entry has the bits of
// its basis's Eval, at zero, subnormal-adjacent and negative sizes, the
// clamp boundaries, and the powers of two the probing rounds sample, under
// scales from below 1 to far above the samples.
func TestFeatureTableMatchesBases(t *testing.T) {
	all := []Basis{basisOne, basisLog, basisX, basisX2, basisX3, basisExp, basisXExp, basisXLog, basisInv}
	seen := make([]bool, numFeatures)
	for _, b := range all {
		if seen[b.feat] {
			t.Fatalf("basis %q shares feature column %d", b.Name, b.feat)
		}
		seen[b.feat] = true
	}
	for _, set := range candidateSets {
		for _, b := range set {
			if all[b.feat].Name != b.Name {
				t.Fatalf("candidate basis %q reads column %d (%q)", b.Name, b.feat, all[b.feat].Name)
			}
		}
	}
	xs := []float64{0, 1e-300, -1e-300, -1, -3.5, -65536, 5e-10, 1e-9, 1e-3, 1, 1.5, 3, 1000.25}
	for e := 4; e <= 22; e++ {
		p := math.Ldexp(1, e)
		xs = append(xs, p, p+1, p*0.75)
	}
	scales := []float64{1e-12, 1e-3, 1, 64, 1000, 65536, 1 << 22, 4 << 20, 1e12}
	row := make([]float64, numFeatures)
	for _, s := range scales {
		for _, x := range xs {
			features(row, x, s)
			for _, b := range all {
				if got, want := row[b.feat], b.Eval(x, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("x=%g s=%g: table %q = %v, Eval = %v", x, s, b.Name, got, want)
				}
			}
		}
	}
}
