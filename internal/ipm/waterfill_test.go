package ipm

import (
	"math"
	"math/rand"
	"testing"
)

// countingCurve counts every evaluation of its value or derivative.
type countingCurve struct {
	base Curve
	n    *int
}

func (c countingCurve) Eval(x float64) float64  { *c.n++; return c.base.Eval(x) }
func (c countingCurve) Deriv(x float64) float64 { *c.n++; return c.base.Deriv(x) }

// counted wraps every curve of p so that each evaluation bumps *n.
func counted(p Problem, n *int) Problem {
	q := Problem{Total: p.Total, Curves: make([]Curve, len(p.Curves))}
	for g, c := range p.Curves {
		q.Curves[g] = countingCurve{base: c, n: n}
	}
	return q
}

// solveNFamily builds the n-unit problems of the root SolveN benchmark:
// per-unit speeds spanning ~3 orders of magnitude.
func solveNFamily(n int) Problem {
	rng := rand.New(rand.NewSource(42 + int64(n)))
	curves := make([]Curve, n)
	for g := range curves {
		curves[g] = testCurve{
			a: rng.Float64() * 1e-3,
			b: math.Exp(rng.Float64()*5.7) * 1e-4,
			c: rng.Float64() * 1e-2,
		}
	}
	return Problem{Curves: curves, Total: 65536}
}

// fixtures returns the randomized problems of TestArrowMatchesDense and
// the SolveN family up to n = 64 (a dense solve at n = 256 takes seconds).
func fixtures() []Problem {
	var ps []Problem
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		ps = append(ps, randomProblem(2+rng.Intn(39), rng))
	}
	for _, n := range []int{4, 16, 64} {
		ps = append(ps, solveNFamily(n))
	}
	return ps
}

// agrees fails the test unless got matches the interior-point reference
// want: τ within 1e-9 relative and every block within 1e-6·Total.
func agrees(t *testing.T, tag string, p Problem, want, got Result) {
	t.Helper()
	if d := math.Abs(got.Tau - want.Tau); d > 1e-9*math.Abs(want.Tau) {
		t.Fatalf("%s (n=%d): tau=%.17g, IPM %.17g (rel diff %g)", tag, len(p.Curves), got.Tau, want.Tau, d/want.Tau)
	}
	for g := range want.X {
		if d := math.Abs(got.X[g] - want.X[g]); d > 1e-6*p.Total {
			t.Fatalf("%s (n=%d): X[%d]=%g, IPM %g", tag, len(p.Curves), g, got.X[g], want.X[g])
		}
	}
}

// TestWaterfillMatchesIPM checks the water-filling solve — Solve's
// fallback and the Solver's only method — against the dense interior-point
// method's KKT points. The reference runs at KKT tolerance 1e-13: at the
// default 1e-8 the barrier leaves slow units' slacks open, so the IPM's own
// makespan sits up to ~3e-5 relative above the exact equal-finish-time one.
func TestWaterfillMatchesIPM(t *testing.T) {
	sv := NewSolver(Options{WarmStart: true})
	compared := 0
	for i, p := range fixtures() {
		want, err := Solve(p, Options{DisableFall: true, Tol: 1e-13})
		if err != nil {
			continue // no interior-point reference for this draw
		}
		compared++
		fall, err := Solve(p, Options{DisableIPM: true})
		if err != nil {
			t.Fatalf("fixture %d: water-filling Solve: %v", i, err)
		}
		if !fall.UsedFallback || !fall.Converged {
			t.Fatalf("fixture %d: DisableIPM solve UsedFallback=%v Converged=%v", i, fall.UsedFallback, fall.Converged)
		}
		agrees(t, "Solve(DisableIPM)", p, want, fall)
		got, err := sv.Solve(p)
		if err != nil {
			t.Fatalf("fixture %d: Solver: %v", i, err)
		}
		if got.UsedFallback || !got.Converged {
			t.Fatalf("fixture %d: Solver UsedFallback=%v Converged=%v", i, got.UsedFallback, got.Converged)
		}
		agrees(t, "Solver", p, want, got)
	}
	if compared < 100 {
		t.Fatalf("only %d fixtures had an interior-point reference", compared)
	}
}

// TestWaterfillEvaluationBudget bounds curve evaluations: a cold solve
// stays within 60 per unit (the nested bisection it replaced spent about
// 128 × 82), and a warm re-solve after a refit spends fewer than cold.
func TestWaterfillEvaluationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 8, 64, 1024, 10000} {
		p := solveNFamily(n)
		var evals int
		sv := NewSolver(Options{WarmStart: true})
		cold, err := sv.Solve(counted(p, &evals))
		if err != nil {
			t.Fatal(err)
		}
		coldEvals := evals
		if coldEvals > 60*n {
			t.Fatalf("n=%d: cold solve used %d evaluations, budget %d", n, coldEvals, 60*n)
		}

		refit := Problem{Total: p.Total, Curves: make([]Curve, n)}
		for g, c := range p.Curves {
			refit.Curves[g] = scaleCurve{base: c, k: 1 + 0.1*rng.Float64()}
		}
		evals = 0
		warm, err := sv.Solve(counted(refit, &evals))
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmStarted {
			t.Fatalf("n=%d: refit did not warm start", n)
		}
		if evals >= coldEvals {
			t.Fatalf("n=%d: warm re-solve used %d evaluations, cold %d", n, evals, coldEvals)
		}
		t.Logf("n=%d: cold %d evaluations (%.1f/unit, %d τ steps), warm %d (%d τ steps)",
			n, coldEvals, float64(coldEvals)/float64(n), cold.Iterations, evals, warm.Iterations)
	}
}

// bumpCurve is a non-monotone fit: linear with a hump in the middle of the
// work range, so its time falls for a stretch of growing blocks.
type bumpCurve struct{ b, h, at float64 }

func (c bumpCurve) Eval(x float64) float64 {
	d := (x - c.at) / (0.05 * c.at)
	return c.b*x + c.h*math.Exp(-d*d)
}

func (c bumpCurve) Deriv(x float64) float64 {
	d := (x - c.at) / (0.05 * c.at)
	return c.b - c.h*math.Exp(-d*d)*2*d/(0.05*c.at)
}

// TestWaterfillNonMonotoneFeasible: with non-monotone fitted curves the
// split is still feasible — it sums to the total and every unit with work
// finishes by the reported makespan.
func TestWaterfillNonMonotoneFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		p := randomProblem(n, rng)
		for g := 0; g < n; g += 2 {
			b := math.Exp(rng.Float64()*5.7) * 1e-4
			at := p.Total / float64(n) * (0.5 + rng.Float64())
			p.Curves[g] = bumpCurve{b: b, h: b * at * (0.5 + rng.Float64()), at: at}
		}
		for _, res := range []Result{mustSolve(t, p, Options{DisableIPM: true}), mustSolverSolve(t, p)} {
			var sum float64
			for g, x := range res.X {
				sum += x
				if x > 0 {
					if e := p.Curves[g].Eval(x); e > res.Tau*(1+1e-9) {
						t.Fatalf("trial %d: unit %d finishes at %g after tau %g", trial, g, e, res.Tau)
					}
				}
			}
			if math.Abs(sum-p.Total) > 1e-6*p.Total {
				t.Fatalf("trial %d: split sums to %g, want %g", trial, sum, p.Total)
			}
		}
	}
}

func mustSolve(t *testing.T, p Problem, opt Options) Result {
	t.Helper()
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustSolverSolve(t *testing.T, p Problem) Result {
	t.Helper()
	res, err := NewSolver(Options{}).Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
