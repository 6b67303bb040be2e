package ipm

import (
	"math"
	"math/rand"
	"testing"
)

// scaleCurve perturbs a base curve by a constant factor — the shape of a
// refit after a mild speed drift.
type scaleCurve struct {
	base Curve
	k    float64
}

func (c scaleCurve) Eval(x float64) float64  { return c.k * c.base.Eval(x) }
func (c scaleCurve) Deriv(x float64) float64 { return c.k * c.base.Deriv(x) }

// TestSolverWarmStart checks the warm-start lifecycle: the first solve is
// cold, a repeat solve warm-starts and does less work — fewer curve
// evaluations and τ steps — for the same distribution, and a perturbed
// refit still warm-starts and converges.
func TestSolverWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var evals int
	p := counted(randomProblem(8, rng), &evals)
	sv := NewSolver(Options{Structured: true, WarmStart: true})

	first, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmStarted {
		t.Fatal("first solve reported WarmStarted")
	}
	firstX := append([]float64(nil), first.X...)
	coldEvals := evals

	evals = 0
	second, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmStarted {
		t.Fatal("repeat solve did not warm start")
	}
	if evals >= coldEvals || second.Iterations >= first.Iterations {
		t.Fatalf("warm solve: %d evaluations, %d τ steps; cold: %d, %d",
			evals, second.Iterations, coldEvals, first.Iterations)
	}
	for g := range firstX {
		if d := math.Abs(second.X[g] - firstX[g]); d > 1e-6*p.Total {
			t.Fatalf("X[%d] warm=%g cold=%g", g, second.X[g], firstX[g])
		}
	}

	// A mildly perturbed system (refit after drift) should still warm start
	// and converge.
	pert := Problem{Total: p.Total, Curves: make([]Curve, len(p.Curves))}
	for g, c := range p.Curves {
		pert.Curves[g] = scaleCurve{base: c, k: 1 + 0.1*rng.Float64()}
	}
	third, err := sv.Solve(pert)
	if err != nil {
		t.Fatal(err)
	}
	if !third.WarmStarted {
		t.Fatal("perturbed solve did not warm start")
	}
	if !third.Converged {
		t.Fatal("perturbed warm solve did not converge")
	}
}

// TestSolverWarmInvalidation checks the two cold-start triggers: an
// explicit Invalidate and a changed active curve set (a dead unit). A cold
// restart does the same work as a fresh Solver.
func TestSolverWarmInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var evals int
	p := counted(randomProblem(6, rng), &evals)
	sv := NewSolver(Options{Structured: true, WarmStart: true})
	if _, err := sv.Solve(p); err != nil {
		t.Fatal(err)
	}
	coldEvals := evals

	sv.Invalidate()
	evals = 0
	res, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Fatal("solve after Invalidate reported WarmStarted")
	}
	if evals != coldEvals {
		t.Fatalf("solve after Invalidate used %d evaluations, a cold solve %d", evals, coldEvals)
	}

	// Kill unit 2: the active set shrinks, so the stored shares no longer
	// match and the solve must start cold — with zero work on the dead
	// unit.
	if _, err := sv.Solve(p); err != nil { // re-arm the warm state
		t.Fatal(err)
	}
	dead := Problem{Total: p.Total, Curves: append([]Curve(nil), p.Curves...)}
	dead.Curves[2] = infCurve{}
	res, err = sv.Solve(dead)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Fatal("solve with a changed active set reported WarmStarted")
	}
	if res.X[2] != 0 {
		t.Fatalf("dead unit got %g units, want 0", res.X[2])
	}
	var sum float64
	for _, x := range res.X {
		sum += x
	}
	if math.Abs(sum-p.Total) > 1e-6*p.Total {
		t.Fatalf("distribution sums to %g, want %g", sum, p.Total)
	}
}

// infCurve is a failed device: infinite time for any block.
type infCurve struct{}

func (infCurve) Eval(x float64) float64  { return math.Inf(1) }
func (infCurve) Deriv(x float64) float64 { return 0 }

// TestSolverMatchesSolve checks the Solver against the one-shot Solve on
// fresh problems: it agrees with Solve's interior-point method within the
// water-filling tolerance (τ to 1e-9 relative, blocks to 1e-6·Total), and a
// cold Solver reproduces Solve's water-filling bit for bit.
func TestSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sv := NewSolver(Options{})
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(2+rng.Intn(10), rng)
		got, err := sv.Solve(p)
		if err != nil {
			t.Fatalf("trial %d: Solver: %v", trial, err)
		}
		if want, err := Solve(p, Options{Tol: 1e-13}); err == nil && !want.UsedFallback {
			agrees(t, "Solver", p, want, got)
		}
		wf := mustSolve(t, p, Options{DisableIPM: true})
		for g := range wf.X {
			if wf.X[g] != got.X[g] {
				t.Fatalf("trial %d: X[%d] Solve=%g Solver=%g", trial, g, wf.X[g], got.X[g])
			}
		}
		if wf.Tau != got.Tau || wf.Iterations != got.Iterations {
			t.Fatalf("trial %d: (tau, steps) Solve=(%g,%d) Solver=(%g,%d)",
				trial, wf.Tau, wf.Iterations, got.Tau, got.Iterations)
		}
	}
}

// TestStructuredSolveZeroAlloc pins the steady-state cold Solver solve (the
// options the scale pipeline sets, without warm starting) at zero heap
// allocations per call (CI zero-alloc gate).
func TestStructuredSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randomProblem(8, rng)
	sv := NewSolver(Options{Structured: true})
	for i := 0; i < 3; i++ { // warm the workspaces
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("structured solve allocates %.1f times per call, want 0", allocs)
	}
}

// TestWarmRefitZeroAlloc pins the warm-started refit path — the per-
// rebalance hot path at cluster scale — at zero heap allocations per call.
// Each call solves a different refit of the same units, as rebalances do.
func TestWarmRefitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomProblem(16, rng)
	refit := Problem{Total: p.Total, Curves: make([]Curve, len(p.Curves))}
	for g, c := range p.Curves {
		refit.Curves[g] = scaleCurve{base: c, k: 1.05}
	}
	probs := [2]Problem{p, refit}
	sv := NewSolver(Options{Structured: true, WarmStart: true})
	for i := 0; i < 3; i++ {
		res, err := sv.Solve(probs[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !res.WarmStarted {
			t.Fatal("refit did not warm start")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		res, err := sv.Solve(probs[i%2])
		if err != nil || !res.WarmStarted {
			t.Fatalf("refit: warm=%v err=%v", res.WarmStarted, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm refit allocates %.1f times per call, want 0", allocs)
	}
}
