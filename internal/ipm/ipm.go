// Package ipm implements the solver behind the paper's block-size
// selection (§III.C): given fitted per-unit time curves E_g, find the work
// split x₁…x_n with Σx_g = Total that makes every processing unit finish at
// the same time (Eqs. 3–5). It has two methods.
//
// The interior-point method reproduces the paper, which solves the system
// with IPOPT's interior point line-search filter method [25]. It solves the
// makespan form of the NLP: minimize τ subject to
//
//	E_g(x_g) − τ ≤ 0   (g = 1…n)
//	Σ x_g = Total
//	x_g ≥ 0
//
// whose KKT conditions at the optimum give E_g(x_g) = τ for every unit with
// x_g > 0 — exactly the equal-finish-time condition (Eq. 4). It is a
// primal-dual interior-point method: slacks on the inequalities, log
// barriers on slacks and bounds, Newton steps on the perturbed KKT system,
// a fraction-to-the-boundary rule, a Wächter–Biegler-style filter line
// search, and an adaptive barrier-parameter update in the spirit of [25].
// The Newton system is factored densely (the default) or, with
// Options.Structured, by an O(n) arrow elimination. The package-level Solve
// runs it first.
//
// Water-filling solves the same system exactly and in O(n) curve
// evaluations per τ step (waterfill.go): a safeguarded Newton iteration on
// the makespan τ over per-unit bracketed Newton root-finds. It is Solve's
// fallback when the interior-point method fails (and its only method under
// Options.DisableIPM), and the only method of the persistent Solver that
// schedulers use on clusters of thousands of processing units.
package ipm

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Curve is one processing unit's total-time model E_g (processing + transfer).
type Curve interface {
	// Eval returns the modeled time to handle a block of size x.
	Eval(x float64) float64
	// Deriv returns dE/dx at x.
	Deriv(x float64) float64
}

// Problem is the block-size selection instance.
type Problem struct {
	Curves []Curve
	// Total is the amount of work to distribute (Σ x_g = Total).
	Total float64
}

// Options tunes the solver. The zero value is replaced by defaults. All but
// WarmStart configure the package-level Solve's interior-point method; a
// Solver only reads WarmStart.
type Options struct {
	Tol         float64 // KKT residual tolerance (scaled); default 1e-8
	MaxIter     int     // Newton iteration cap; default 100
	Mu0         float64 // initial barrier parameter; default 0.1
	DisableIPM  bool    // Solve water-fills directly (for ablations)
	DisableFall bool    // Solve forbids the fallback (surface IPM failures)

	// Structured makes Solve compute each Newton direction with the O(n)
	// arrow-structured block elimination (arrow.go) instead of factoring the
	// dense (4n+2)² Jacobian. The two paths agree to solver tolerance but
	// not bit-for-bit, so the zero value keeps the legacy dense numerics
	// (and the pinned golden sweeps) unchanged. When an arrow block
	// factorization breaks down, small systems retry the step densely;
	// systems too large to afford the dense matrix classify as
	// ErrIllConditioned and fall through to the usual ladder.
	Structured bool
	// WarmStart lets a Solver start each water-filling solve from the
	// previous solve's shares whenever the active curve set is unchanged.
	// Ignored by the package-level Solve, which keeps no state between
	// calls.
	WarmStart bool
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Mu0 <= 0 {
		o.Mu0 = 0.1
	}
	return o
}

// Result reports the computed distribution.
type Result struct {
	X   []float64 // block sizes, Σ = Total
	Tau float64   // common finish time
	// Iterations counts interior-point Newton steps, or τ steps of a
	// water-filling solve.
	Iterations int
	Converged  bool // the method reached its tolerance
	// UsedFallback reports that Solve water-filled because the
	// interior-point method failed or was disabled.
	UsedFallback bool
	// WarmStarted reports that a Solver with Options.WarmStart started from
	// the previous solve's shares rather than the even split.
	WarmStarted bool
	KKTResidual float64
	WallTime    time.Duration
}

// ErrInfeasible is returned when no distribution exists (e.g. all curves
// are +Inf — every device failed).
var ErrInfeasible = errors.New("ipm: infeasible block-size problem")

// ErrNoProgress is returned when the Newton line search stalls (no
// acceptable step) and the fallback is disabled.
var ErrNoProgress = errors.New("ipm: line search stalled")

// ErrNonFinite is returned when the problem contains non-finite inputs
// (NaN/Inf total or curves) or the iteration produces non-finite values —
// chaos-corrupted profiles classify here instead of yielding garbage.
var ErrNonFinite = errors.New("ipm: non-finite inputs or iterates")

// ErrNoConverge is returned when the Newton iteration exhausts its
// iteration budget without reaching tolerance.
var ErrNoConverge = errors.New("ipm: iteration budget exhausted without convergence")

// ErrIllConditioned is returned when the KKT system is singular or too
// ill-conditioned to factor.
var ErrIllConditioned = errors.New("ipm: ill-conditioned KKT system")

// Solve computes the equal-finish-time distribution.
func Solve(p Problem, opt Options) (Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	n := len(p.Curves)
	if math.IsNaN(p.Total) || math.IsInf(p.Total, 0) {
		// NaN would pass the <= 0 check below and poison every division.
		return Result{}, fmt.Errorf("ipm: total=%g: %w", p.Total, ErrNonFinite)
	}
	if n == 0 || p.Total <= 0 {
		return Result{}, fmt.Errorf("ipm: empty problem (n=%d total=%g)", n, p.Total)
	}
	// Exclude units with infinite time curves (failed devices): they get
	// zero work and the remaining units share the total.
	if active, excluded := partitionFinite(p); excluded {
		if len(active) == 0 {
			return Result{}, ErrInfeasible
		}
		sub := Problem{Total: p.Total}
		for _, g := range active {
			sub.Curves = append(sub.Curves, p.Curves[g])
		}
		res, err := Solve(sub, opt)
		if err != nil {
			return Result{}, err
		}
		x := make([]float64, n)
		for i, g := range active {
			x[g] = res.X[i]
		}
		res.X = x
		res.WallTime = time.Since(start)
		return res, nil
	}
	if n == 1 {
		x := p.Total
		return Result{
			X: []float64{x}, Tau: p.Curves[0].Eval(x),
			Converged: true, WallTime: time.Since(start),
		}, nil
	}

	sc, err := newScaled(p)
	if err != nil {
		return Result{}, err
	}

	ipmErr := error(ErrNoProgress)
	if !opt.DisableIPM {
		var st solveState
		res, err := solveIPM(sc, opt, &st)
		if err == nil {
			if verr := validResult(res, p.Total); verr != nil {
				err = verr
			} else {
				res.WallTime = time.Since(start)
				return res, nil
			}
		}
		ipmErr = err
	}
	if opt.DisableFall {
		return Result{}, ipmErr
	}
	var wf waterfill
	res, err := wf.solve(sc, false)
	if err != nil {
		return Result{}, err
	}
	if err := validResult(res, p.Total); err != nil {
		return Result{}, err
	}
	res.UsedFallback = true
	res.WallTime = time.Since(start)
	return res, nil
}

// validResult guards the solver's contract: every returned block size is
// finite and non-negative and the sizes sum to Total (within rounding).
// A violation — only reachable with pathological curve inputs — classifies
// as ErrNonFinite rather than propagating garbage into a distribution.
func validResult(res Result, total float64) error {
	var sum float64
	for _, x := range res.X {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("ipm: block size %g in solution: %w", x, ErrNonFinite)
		}
		sum += x
	}
	if math.Abs(sum-total) > 1e-6*math.Max(1, math.Abs(total)) {
		return fmt.Errorf("ipm: solution sums to %g, want %g: %w", sum, total, ErrNonFinite)
	}
	if math.IsNaN(res.Tau) || math.IsInf(res.Tau, 0) {
		return fmt.Errorf("ipm: non-finite makespan %g: %w", res.Tau, ErrNonFinite)
	}
	return nil
}

// partitionFinite returns the indices of curves that evaluate finite at an
// even split, and whether any curve had to be excluded.
func partitionFinite(p Problem) (active []int, excluded bool) {
	even := p.Total / float64(len(p.Curves))
	for g, c := range p.Curves {
		v := c.Eval(even)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			excluded = true
			continue
		}
		active = append(active, g)
	}
	return active, excluded
}

// scaled holds the problem normalized for conditioning: work in units of
// Total (so Σu = 1) and time in units of a typical finish time.
type scaled struct {
	p         Problem
	n         int
	timeScale float64
}

func newScaled(p Problem) (*scaled, error) {
	var s scaled
	if err := s.init(p); err != nil {
		return nil, err
	}
	return &s, nil
}

// init (re)binds s to p, recomputing the scaling. It allocates nothing, so
// a Solver can rebind its scaled view on every call.
func (s *scaled) init(p Problem) error {
	n := len(p.Curves)
	even := p.Total / float64(n)
	ts := 0.0
	finiteCurves := 0
	for _, c := range p.Curves {
		v := c.Eval(even)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			continue
		}
		finiteCurves++
		if v > ts {
			ts = v
		}
	}
	if finiteCurves == 0 {
		return ErrInfeasible
	}
	if ts <= 0 {
		ts = 1
	}
	s.p, s.n, s.timeScale = p, n, ts
	return nil
}

// eval returns the scaled time Ê_g(u) for scaled work u ∈ [0,1].
func (s *scaled) eval(g int, u float64) float64 {
	v := s.p.Curves[g].Eval(u*s.p.Total) / s.timeScale
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// deriv returns dÊ_g/du.
func (s *scaled) deriv(g int, u float64) float64 {
	return s.p.Curves[g].Deriv(u*s.p.Total) * s.p.Total / s.timeScale
}

// deriv2 returns a numeric second derivative d²Ê_g/du², guarded for
// curves whose analytic derivative is noisy.
func (s *scaled) deriv2(g int, u float64) float64 {
	const h = 1e-5
	d := (s.deriv(g, u+h) - s.deriv(g, math.Max(u-h, 1e-12))) / (2 * h)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// resultInto converts a scaled solution back to problem units, storing the
// block sizes in x (len n); the returned Result.X aliases x.
func (s *scaled) resultInto(x []float64, u []float64, tau float64) Result {
	// Remove tiny slack from the bounds and renormalize so the block sizes
	// sum to exactly Total.
	var sum float64
	for i, ui := range u {
		if ui < 0 {
			ui = 0
		}
		x[i] = ui
		sum += ui
	}
	if sum > 0 {
		for i := range x {
			x[i] = x[i] / sum * s.p.Total
		}
	}
	return Result{X: x, Tau: tau * s.timeScale}
}
