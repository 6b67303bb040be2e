package fit

import (
	"fmt"
	"math"
	"slices"

	"plbhec/internal/linalg"
)

// NormalEq accumulates the normal equations of a least-squares problem one
// sample at a time: after n calls to Add, ata = XᵀX and aty = Xᵀy for the
// n×p design matrix X whose rows were the added rows. Because each Gram
// entry is a straight sum over samples in insertion order, folding samples
// incrementally (m now, n−m later) produces bit-identical accumulators to
// folding all n in one pass — the property the profiling refit path relies
// on to skip re-reading old samples every round.
type NormalEq struct {
	p   int
	n   int
	ata *linalg.Matrix // p×p Gram matrix XᵀX
	aty linalg.Vector  // Xᵀy
}

// Reset clears the accumulator for a p-coefficient problem, reusing storage.
func (ne *NormalEq) Reset(p int) {
	if ne.ata == nil {
		ne.ata = linalg.NewMatrix(p, p)
	} else {
		ne.ata.Reset(p, p)
	}
	if cap(ne.aty) < p {
		ne.aty = linalg.NewVector(p)
	} else {
		ne.aty = ne.aty[:p]
		for i := range ne.aty {
			ne.aty[i] = 0
		}
	}
	ne.p, ne.n = p, 0
}

// P returns the coefficient count (0 before the first Reset).
func (ne *NormalEq) P() int { return ne.p }

// N returns the number of samples folded in since the last Reset.
func (ne *NormalEq) N() int { return ne.n }

// Add folds one sample (design row, observation y) into the accumulator —
// a rank-1 update of the Gram matrix, O(p²) instead of the O(n·p²) full
// rebuild.
func (ne *NormalEq) Add(row linalg.Vector, y float64) {
	p := ne.p
	if len(row) != p {
		panic(linalg.ErrDimension)
	}
	for i := 0; i < p; i++ {
		ri := row[i]
		gi := ne.ata.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			gi[j] += ri * row[j]
		}
		ne.aty[i] += ri * y
	}
	ne.n++
}

// neSolver solves an accumulated normal-equations system with reusable
// scratch, so a warm refit performs zero heap allocations. The Gram matrix
// is Jacobi-equilibrated with power-of-two scale factors before the
// Cholesky factorization: d_j = 2^(−⌊log₂ √G_jj⌋) brings every diagonal
// entry into [1, 4), taming the wild column norms the raw basis functions
// produce (1 vs x³ at x≈10⁶), and because the factors are exact powers of
// two the scaling introduces no rounding of its own — the accumulated Gram
// entries are untouched and the descaled solution is exact in the same
// sense an unscaled solve would be.
type neSolver struct {
	scaled *linalg.Matrix
	chol   linalg.Cholesky
	d      linalg.Vector
	rhs    linalg.Vector
}

// solve computes coef (len p, caller-provided) from the accumulated system.
// It returns linalg.ErrSingular when the equilibrated Gram matrix is not
// positive definite (collinear bases); callers fall back to QR on the full
// design matrix in that case.
func (ws *neSolver) solve(ne *NormalEq, coef linalg.Vector) error {
	p := ne.p
	if len(coef) != p {
		return linalg.ErrDimension
	}
	if ws.scaled == nil {
		ws.scaled = linalg.NewMatrix(p, p)
	} else {
		ws.scaled.Reset(p, p)
	}
	ws.d = resizeZero(ws.d, p)
	ws.rhs = resizeZero(ws.rhs, p)
	for j := 0; j < p; j++ {
		g := ne.ata.At(j, j)
		dj := 1.0
		if g > 0 && !math.IsInf(g, 1) {
			// Exact power of two nearest to 1/√g (by exponent).
			dj = math.Ldexp(1, -math.Ilogb(math.Sqrt(g)))
		}
		ws.d[j] = dj
	}
	for i := 0; i < p; i++ {
		di := ws.d[i]
		src := ne.ata.Data[i*p : (i+1)*p]
		dst := ws.scaled.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			dst[j] = di * ws.d[j] * src[j]
		}
		ws.rhs[i] = di * ne.aty[i]
	}
	if err := ws.chol.Factor(ws.scaled); err != nil {
		return err
	}
	if err := ws.chol.SolveInto(coef, ws.rhs); err != nil {
		return err
	}
	for i := 0; i < p; i++ {
		coef[i] *= ws.d[i]
	}
	return nil
}

// resizeZero returns v resized to n with every entry zeroed, reusing the
// backing array when capacity allows.
func resizeZero(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return linalg.NewVector(n)
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// setAccum is one candidate basis set's incremental state.
type setAccum struct {
	ne        NormalEq
	scale     float64 // fitting scale the accumulation was built with
	scaleFree bool    // every basis ignores the scale → survives scale moves
}

// Scratch is the working storage of Fitter.Fit and Fitter.Line: the
// basis-feature table, the candidates' coefficients, models and scores, the
// normal-equations solver, and the QR fallback's design matrix and
// factorization. Nothing in it outlives a call, so fitters that never run
// concurrently can share one Scratch; profile.Sampler shares one across the
// fitters of all its units. The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	// feat is the feature table: row k holds every basis value of sample k
	// under the current fitting scale (see features).
	feat   []float64
	coef   [len(candidateSets)][maxP]float64
	models [len(candidateSets)]Model
	score  [len(candidateSets)]float64 // unpenalized score AdjR² − 0.002·p
	order  [len(candidateSets)]int     // ranked candidates (see Fitter.Fit)
	row    [maxP]float64               // one design row
	ne     neSolver
	design linalg.Matrix
	qr     linalg.QR
}

// tabulate fills the feature table for the samples xs under scale.
func (sc *Scratch) tabulate(xs []float64, scale float64) {
	sc.feat = slices.Grow(sc.feat[:0], len(xs)*numFeatures)[:len(xs)*numFeatures]
	for k, x := range xs {
		features(sc.featRow(k), x, scale)
	}
}

// featRow returns sample k's row of the feature table.
func (sc *Scratch) featRow(k int) []float64 {
	return sc.feat[k*numFeatures : (k+1)*numFeatures]
}

// designRow copies sample k's values of bases into the design-row scratch.
func (sc *Scratch) designRow(k int, bases []Basis) linalg.Vector {
	feat, row := sc.featRow(k), sc.row[:len(bases)]
	for j, b := range bases {
		row[j] = feat[b.feat]
	}
	return row
}

// model wraps a solved coefficient vector as a Model scored on the tabulated
// samples: R² from residuals summed in sample order, Σ coef_j·basis_j in
// basis order, exactly as Model.Eval computes each value.
func (sc *Scratch) model(bases []Basis, coef linalg.Vector, ys []float64, scale, ssTot float64) (Model, error) {
	if !coef.IsFinite() {
		return Model{}, ErrDegenerate
	}
	var ssRes float64
	for k, y := range ys {
		feat := sc.featRow(k)
		var v float64
		for j, b := range bases {
			v += coef[j] * feat[b.feat]
		}
		d := y - v
		ssRes += d * d
	}
	m := Model{Bases: bases, Coef: coef, Scale: scale}
	m.R2, m.AdjR2 = r2From(ssRes, ssTot, len(ys), len(bases))
	return m, nil
}

// fitQR solves one basis set's least-squares problem over the tabulated
// samples by QR of the full design matrix, in the Scratch's reused design
// matrix and factorization, writing the solution into coef. Only the ridge
// retry for a singular or non-finite solve allocates.
func (sc *Scratch) fitQR(bases []Basis, ys []float64, scale, ssTot float64, coef linalg.Vector) (Model, error) {
	p := len(bases)
	sc.design.Reset(len(ys), p)
	for k := range ys {
		copy(sc.design.Data[k*p:(k+1)*p], sc.designRow(k, bases))
	}
	if err := sc.qr.LeastSquaresInto(coef, &sc.design, ys); err != nil {
		return Model{}, err
	}
	return sc.model(bases, coef, ys, scale, ssTot)
}

// Fitter is the incremental engine behind FitSamplesOver: it keeps, per
// candidate basis set, the accumulated normal equations of all samples seen
// so far, so a refit after k new samples costs O(k·p²) rank-1 updates plus
// a p×p solve instead of rebuilding n×p design matrices and QR-factoring
// them from scratch. One Fitter serves one growing sample stream (one
// processing unit's exec or transfer history); create one per stream.
//
// Fit verifies on every call that the previous samples are a prefix of the
// new ones (values compared, not identity) and restarts the accumulation
// transparently when the history was rewritten — Sampler.ScaleTimes and
// seed changes both land on that path. Candidate sets containing
// scale-dependent bases (eˣ, x·eˣ, 1/x) are also rebuilt whenever the
// fitting scale moves; the seven all-scale-free sets accumulate across
// every refit.
//
// A refit makes one pass over the samples to tabulate the basis values (see
// features); the accumulations, the R² residuals and the QR fallback all read
// that table. Selection then ranks the fitted candidates by unpenalized
// score (ties: earlier set first) and runs the monotonicity check in that
// order, stopping at the first candidate that ranks below the best
// penalized score found, as the package comment describes.
//
// The returned Model borrows coefficient storage from the Fitter's Scratch:
// it is valid until the next Fit or Line call on any Fitter sharing that
// Scratch. Callers that retain models across refits must clone Coef
// (profile.FitAll does).
type Fitter struct {
	xs, ys []float64 // the canonical sample stream folded so far

	accs [len(candidateSets)]setAccum

	line    setAccum  // transfer-line accumulator ({1, x}) for Line
	lxs, ly []float64 // Line's own stream prefix

	sc *Scratch
}

// NewFitter returns an empty incremental fitter over the paper's candidate
// basis sets, with a Scratch of its own.
func NewFitter() *Fitter { return NewSharedFitter(new(Scratch)) }

// NewSharedFitter returns an empty incremental fitter that works in sc,
// which other fitters used from the same goroutine may share.
func NewSharedFitter(sc *Scratch) *Fitter {
	f := &Fitter{sc: sc}
	for i, bases := range candidateSets {
		free := true
		for _, b := range bases {
			free = free && b.ScaleFree
		}
		f.accs[i].scaleFree = free
	}
	return f
}

// samePrefix reports whether old is a prefix of cur by value.
func samePrefix(old, cur []float64) bool {
	if len(old) > len(cur) {
		return false
	}
	for i, v := range old {
		if cur[i] != v {
			return false
		}
	}
	return true
}

// ranksAbove reports whether candidate i with score a ranks above candidate
// j with score b: a higher score, or an equal one and an earlier set.
func ranksAbove(a float64, i int, b float64, j int) bool {
	return a > b || (a == b && i < j)
}

// rank inserts candidate i into order, which stays sorted by descending
// (score, −index). Candidates arrive in index order, so i goes after every
// equal score.
func rank(order []int, i int, score []float64) []int {
	k := len(order)
	order = append(order, i)
	for ; k > 0 && score[order[k-1]] < score[i]; k-- {
		order[k] = order[k-1]
	}
	order[k] = i
	return order
}

// pick returns the candidate an index-order scan would choose — the highest
// score[i] less 1 where monotone(i) is false, the earliest on ties — or −1
// when order is empty. It calls monotone in rank order, and stops once the
// next candidate's unpenalized rank is below the best penalized one: the
// penalty only lowers a score, so no later candidate can win.
func pick(order []int, score []float64, monotone func(i int) bool) int {
	best, bestScore := -1, 0.0
	for _, i := range order {
		s := score[i]
		if best >= 0 && !ranksAbove(s, i, bestScore, best) {
			break
		}
		if !monotone(i) {
			s -= 1
		}
		if best < 0 || ranksAbove(s, i, bestScore, best) {
			best, bestScore = i, s
		}
	}
	return best
}

// Fit is the incremental equivalent of FitSamplesOver(xs, ys, useHi): same
// candidate sets, same selection, same fallback — only the per-set
// least-squares solve runs on incrementally accumulated normal equations.
// xs must extend the previously fitted stream (append-only); any other
// change restarts the accumulation automatically.
func (f *Fitter) Fit(xs, ys []float64, useHi float64) (Model, error) {
	if len(xs) != len(ys) {
		return Model{}, fmt.Errorf("fit: len(xs)=%d len(ys)=%d: %w", len(xs), len(ys), ErrTooFewPoints)
	}
	if len(xs) < 2 {
		return Model{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Model{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Model{}, ErrDegenerate
	}
	lo, hi := minMax(xs)
	if useHi < hi {
		useHi = hi
	}
	// Same scale rule as FitSamplesOver: exponential bases span the usage
	// horizon, not just the sample range.
	if scale < useHi {
		scale = useHi
	}

	if !samePrefix(f.xs, xs) || !samePrefix(f.ys, ys) {
		// History rewritten (ScaleTimes, new stream): restart everything.
		f.xs, f.ys = f.xs[:0], f.ys[:0]
		for i := range f.accs {
			f.accs[i].ne.p = 0
		}
	}

	sc := f.sc
	sc.tabulate(xs, scale)
	ssTot := totalSS(ys)
	// Fit every candidate and rank the usable ones.
	order := sc.order[:0]
	for i, bases := range candidateSets {
		if len(xs) <= len(bases) {
			// A saturated fit (as many parameters as points) interpolates
			// the noise exactly and extrapolates wildly; skip it.
			continue
		}
		m, err := f.fitSet(i, bases, ys, scale, ssTot)
		if err != nil {
			continue
		}
		// Prefer parsimony on near-ties.
		u := m.AdjR2 - 0.002*float64(len(bases))
		if !(u > math.Inf(-1)) {
			continue // NaN and −Inf scores never win
		}
		sc.models[i], sc.score[i] = m, u
		order = rank(order, i, sc.score[:])
	}
	// Penalize non-monotone candidates.
	best := pick(order, sc.score[:], func(i int) bool {
		return sc.models[i].MonotoneNonDecreasing(lo, useHi)
	})

	// Record the stream before returning: the accumulators now cover it.
	f.xs = append(f.xs, xs[len(f.xs):]...)
	f.ys = append(f.ys, ys[len(f.ys):]...)

	if best < 0 {
		// Every candidate was skipped (e.g. only 2 points): fall back to
		// the line, which needs two points and never explodes.
		return sc.fitQR(lineBases, ys, scale, ssTot, sc.coef[0][:2])
	}
	return sc.models[best], nil
}

// fitSet updates candidate set i's accumulator with the stream tail and
// solves it. On a normal-equations failure (collinear bases) it falls back
// to QR on the full design matrix, matching the one-shot fit's robustness.
// The feature table must hold the current stream.
func (f *Fitter) fitSet(i int, bases []Basis, ys []float64, scale, ssTot float64) (Model, error) {
	acc := &f.accs[i]
	p := len(bases)
	if acc.ne.P() != p || (!acc.scaleFree && acc.scale != scale) {
		acc.ne.Reset(p)
	}
	acc.scale = scale
	sc := f.sc
	for k := acc.ne.N(); k < len(ys); k++ {
		acc.ne.Add(sc.designRow(k, bases), ys[k])
	}
	coef := linalg.Vector(sc.coef[i][:p])
	if err := sc.ne.solve(&acc.ne, coef); err != nil {
		return sc.fitQR(bases, ys, scale, ssTot, coef)
	}
	return sc.model(bases, coef, ys, scale, ssTot)
}

// Line is the incremental equivalent of FitLinear(xs, ys): the transfer
// model G_p = a₁·x + a₂ solved from accumulated normal equations. It keeps
// its own stream prefix, independent of Fit's.
func (f *Fitter) Line(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Linear{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Linear{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Linear{}, ErrDegenerate
	}
	if !samePrefix(f.lxs, xs) || !samePrefix(f.ly, ys) {
		f.lxs, f.ly = f.lxs[:0], f.ly[:0]
		f.line.ne.p = 0
	}
	if f.line.ne.P() != 2 {
		f.line.ne.Reset(2)
	}
	row := linalg.Vector(f.sc.row[:2])
	for k := f.line.ne.N(); k < len(xs); k++ {
		row[0], row[1] = 1, xs[k]
		f.line.ne.Add(row, ys[k])
	}
	f.lxs = append(f.lxs, xs[len(f.lxs):]...)
	f.ly = append(f.ly, ys[len(f.ly):]...)
	// Set 0 is {1, x}, so its coefficient slot fits the line.
	coef := linalg.Vector(f.sc.coef[0][:2])
	if err := f.sc.ne.solve(&f.line.ne, coef); err != nil {
		// Collinear fallback, mirroring FitLinear's QR robustness.
		m, err2 := fitBasis(lineBases, xs, ys, scale)
		if err2 != nil {
			return Linear{}, err2
		}
		return Linear{A1: m.Coef[1], A2: m.Coef[0], R2: m.R2}, nil
	}
	if !coef.IsFinite() {
		return Linear{}, ErrDegenerate
	}
	m := Model{Bases: lineBases, Coef: coef, Scale: scale}
	r2, _ := rsquared(m, xs, ys)
	return Linear{A1: coef[1], A2: coef[0], R2: r2}, nil
}

// lineBases is the {1, x} basis pair of the transfer line.
var lineBases = candidateSets[0]
