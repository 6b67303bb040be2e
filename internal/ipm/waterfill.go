package ipm

import "math"

// Water-filling solve. With monotone time curves the equal-finish-time
// system (Eqs. 3–5) reduces to one equation in the makespan τ: the work
// u_g(τ) each unit finishes within τ is monotone in τ, and the solution is
// the τ at which the capacity C(τ) = Σ u_g(τ) equals the total. The outer
// loop is Newton's method on C(τ) = 1, with C′(τ) = Σ 1/Ê′_g(u_g), kept
// inside a bisection bracket; each u_g(τ) is a bracketed Newton root-find
// of Ê_g(u) = τ started from that unit's u_g at the previous τ. Non-monotone
// fits still get a feasible split: the brackets only need a sign change.

const (
	// waterEps is the smallest scaled block considered: a unit whose time
	// on it already exceeds τ receives no work.
	waterEps = 1e-9
	// capTol is the capacity tolerance |C(τ) − 1| of a converged solve.
	capTol = 1e-12
	// rootTol is the Newton step (in scaled work) below which a unit's
	// root-find stops; the step just taken leaves a far smaller error.
	rootTol = 1e-13
	// maxOuter and maxRoot cap the τ steps and the per-unit root-find
	// steps. Bisection alone reaches double precision well inside both.
	maxOuter = 200
	maxRoot  = 100
)

// waterfill holds the buffers of the water-filling solve. The zero value is
// ready; a Solver keeps one across calls, so steady-state solves allocate
// nothing and the shares of one solve seed the next warm start.
type waterfill struct {
	u  []float64 // per-unit scaled work at the current τ (the shares)
	d  []float64 // Ê′_g at each unit's last root-find step; 1/Ê′_g in start
	e0 []float64 // Ê_g(waterEps)
	e1 []float64 // Ê_g(1)
	x  []float64 // result block sizes (aliased by the returned Result.X)
}

// solve water-fills the scaled problem. Cold, it starts from the even
// split; warm, w.u must hold the previous solve's shares of the same units.
// Result.Iterations counts the τ steps.
func (w *waterfill) solve(sc *scaled, warm bool) (Result, error) {
	n := sc.n
	w.u = resizeVec(w.u, n)
	w.d = resizeVec(w.d, n)
	w.e0 = resizeVec(w.e0, n)
	w.e1 = resizeVec(w.e1, n)
	w.x = resizeVec(w.x, n)
	if !warm {
		for g := range w.u {
			w.u[g] = 1 / float64(n)
		}
	}

	// Bracket τ: below every unit's time on almost nothing (C = 0), at or
	// above every finite unit's time on everything (each such unit takes
	// the whole work, so C ≥ 1).
	lo, hi := math.Inf(1), math.Inf(-1)
	for g := 0; g < n; g++ {
		w.e0[g] = sc.eval(g, waterEps)
		w.e1[g] = sc.eval(g, 1)
		if math.IsInf(w.e1[g], 1) {
			continue
		}
		lo = math.Min(lo, w.e0[g])
		hi = math.Max(hi, w.e1[g])
	}
	if math.IsInf(hi, -1) {
		return Result{}, ErrInfeasible
	}
	if !(hi > lo) {
		hi = lo + 1
	}

	tau := w.start(sc, lo, hi)
	var r float64
	iters := 0
	converged := false
	for iters < maxOuter {
		iters++
		c, dc := w.capacity(sc, tau)
		r = c - 1
		if math.Abs(r) <= capTol {
			converged = true
			break
		}
		if r > 0 {
			hi = tau
		} else {
			lo = tau
		}
		if hi-lo <= 1e-15*(1+math.Abs(hi)) {
			// Bracket exhausted (a jump in C from a non-monotone or flat
			// curve): settle on the side that can absorb all the work.
			if r < 0 {
				iters++
				c, _ = w.capacity(sc, hi)
				r = c - 1
			}
			converged = true
			break
		}
		next := tau - r/dc
		if !(next > lo && next < hi) { // also catches dc = 0 and NaN
			next = lo + 0.5*(hi-lo)
		}
		tau = next
	}

	res := sc.resultInto(w.x, w.u, tau)
	// Report the makespan of the returned split itself: the finish time of
	// the slowest unit that received work.
	res.Tau = math.Inf(-1)
	for g, x := range res.X {
		if x > 0 {
			res.Tau = max(res.Tau, sc.p.Curves[g].Eval(x))
		}
	}
	res.Iterations = iters
	res.Converged = converged
	res.KKTResidual = math.Abs(r)
	return res, nil
}

// start returns the first τ: one Newton step on the joint system from the
// shares in w.u, linearizing each curve there,
// u_g(τ) ≈ u_g + (τ − Ê_g(u_g))/Ê′_g(u_g), and solving Σ u_g(τ) = 1. It
// leaves each unit's linearized share at that τ in w.u as the first guess
// of its root-find. A unit whose curve cannot be linearized keeps its share.
func (w *waterfill) start(sc *scaled, lo, hi float64) float64 {
	var k, sumInv float64
	for g, u := range w.u {
		t, d := sc.eval(g, u), sc.deriv(g, u)
		if !(d > 0) || math.IsInf(t, 0) || math.IsInf(d, 0) {
			w.d[g] = 0
			k += u
			continue
		}
		w.u[g] = u - t/d // intercept of the linearized share
		w.d[g] = 1 / d
		k += w.u[g]
		sumInv += w.d[g]
	}
	tau := (1 - k) / sumInv
	if !(tau > lo && tau < hi) {
		tau = lo + 0.5*(hi-lo)
	}
	for g := range w.u {
		w.u[g] += tau * w.d[g]
	}
	return tau
}

// capacity returns C(τ) = Σ u_g(τ) and C′(τ) = Σ 1/Ê′_g(u_g) over the
// units strictly between the edges, updating the shares in w.u.
func (w *waterfill) capacity(sc *scaled, tau float64) (c, dc float64) {
	for g := range w.u {
		u, d := w.root(sc, g, tau)
		w.u[g], w.d[g] = u, d
		c += u
		if d > 0 && !math.IsInf(d, 1) {
			dc += 1 / d
		}
	}
	return c, dc
}

// root returns u_g(τ), the scaled work unit g finishes within τ, and Ê′_g
// at the last point it evaluated (0 at an edge). The edges: 0 when even
// waterEps work takes longer than τ, 1 when the whole work fits. Otherwise
// it finds Ê_g(u) = τ by Newton's method from the unit's current share,
// keeping a bracket [a, b] with Ê_g(a) ≤ τ < Ê_g(b) and bisecting whenever
// a step would leave it.
func (w *waterfill) root(sc *scaled, g int, tau float64) (u, d float64) {
	if !(w.e0[g] <= tau) {
		return 0, 0
	}
	if w.e1[g] <= tau {
		return 1, 0
	}
	a, b := waterEps, 1.0
	u = w.u[g]
	if !(u >= a) {
		u = a
	} else if u > b {
		u = b
	}
	for i := 0; i < maxRoot; i++ {
		f := sc.eval(g, u) - tau
		if f <= 0 {
			a = u
		} else {
			b = u
		}
		d = sc.deriv(g, u)
		if f == 0 {
			break
		}
		next := u - f/d
		if !(next > a && next < b) { // also catches d ≤ 0 and NaN
			next = a + 0.5*(b-a)
		}
		step := math.Abs(next - u)
		u = next
		if step <= rootTol {
			break
		}
	}
	return u, d
}
