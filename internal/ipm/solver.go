package ipm

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Solver is a reusable block-size solver for repeated solves over the same
// cluster. It water-fills (waterfill.go) and keeps its buffers across
// calls, so steady-state solves allocate nothing. With Options.WarmStart
// each solve starts from the previous solve's shares whenever the active
// curve set is unchanged, which is where a rebalance's refit lands.
//
// The returned Result.X aliases solver-owned storage and is valid until the
// next Solve call; callers that keep distributions (the scheduler copies
// into its share vector immediately) must copy. A Solver is not safe for
// concurrent use.
type Solver struct {
	warmStart bool
	sc        scaled
	wf        waterfill
	warm      bool    // wf.u holds the shares of the last solve over warmOf
	warmOf    []int   // active-curve signature of those shares
	active    []int   // indices of curves finite at the even split
	curves    []Curve // the active sub-problem's curves
	xfull     []float64
}

// NewSolver returns a Solver with the given options. Of the options only
// WarmStart applies: the Solver always water-fills.
func NewSolver(opt Options) *Solver {
	return &Solver{warmStart: opt.WarmStart}
}

// Invalidate drops the warm-start state, forcing the next solve to start
// cold. Schedulers call it when the cluster topology changed in a way the
// active-set signature cannot see (a unit blacklisted, a device replaced).
func (sv *Solver) Invalidate() { sv.warm = false }

// Solve computes the equal-finish-time distribution, like the package-level
// Solve but by water-filling alone, with persistent buffers and optional
// warm starting.
func (sv *Solver) Solve(p Problem) (Result, error) {
	start := time.Now()
	n := len(p.Curves)
	if math.IsNaN(p.Total) || math.IsInf(p.Total, 0) {
		return Result{}, fmt.Errorf("ipm: total=%g: %w", p.Total, ErrNonFinite)
	}
	if n == 0 || p.Total <= 0 {
		return Result{}, fmt.Errorf("ipm: empty problem (n=%d total=%g)", n, p.Total)
	}

	// Active set: curves finite at the even split over the active units,
	// iterated to a fixpoint — the in-place analogue of Solve's recursive
	// partitionFinite (shrinking the set raises the even split, which can
	// expose further non-finite curves).
	sv.active = sv.active[:0]
	for g := range p.Curves {
		sv.active = append(sv.active, g)
	}
	for {
		even := p.Total / float64(len(sv.active))
		kept := sv.active[:0]
		for _, g := range sv.active {
			v := p.Curves[g].Eval(even)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			kept = append(kept, g)
		}
		changed := len(kept) != len(sv.active)
		sv.active = kept
		if len(sv.active) == 0 {
			sv.warm = false
			return Result{}, ErrInfeasible
		}
		if !changed {
			break
		}
	}
	m := len(sv.active)

	if cap(sv.xfull) < n {
		sv.xfull = make([]float64, n)
	}
	sv.xfull = sv.xfull[:n]
	for i := range sv.xfull {
		sv.xfull[i] = 0
	}

	if m == 1 {
		// One live unit takes everything; nothing to warm start.
		sv.warm = false
		g := sv.active[0]
		sv.xfull[g] = p.Total
		return Result{
			X: sv.xfull, Tau: p.Curves[g].Eval(p.Total),
			Converged: true, WallTime: time.Since(start),
		}, nil
	}

	sv.curves = sv.curves[:0]
	for _, g := range sv.active {
		sv.curves = append(sv.curves, p.Curves[g])
	}
	if err := sv.sc.init(Problem{Curves: sv.curves, Total: p.Total}); err != nil {
		sv.warm = false
		return Result{}, err
	}

	// A changed active set (a unit died or recovered) re-dimensions the
	// problem, so the stored shares are useless.
	useWarm := sv.warmStart && sv.warm && slices.Equal(sv.warmOf, sv.active)
	res, err := sv.wf.solve(&sv.sc, useWarm)
	if err == nil {
		err = validResult(res, p.Total)
	}
	if err != nil {
		sv.warm = false
		return Result{}, err
	}
	sv.warm = true
	sv.warmOf = append(sv.warmOf[:0], sv.active...)
	res.WarmStarted = useWarm

	for i, g := range sv.active {
		sv.xfull[g] = res.X[i]
	}
	res.X = sv.xfull
	res.WallTime = time.Since(start)
	return res, nil
}
