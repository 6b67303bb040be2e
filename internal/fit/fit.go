// Package fit implements the performance-model curve fitting of the paper's
// §III.B: least-squares fits of the per-unit execution-time function F_p[x]
// over the basis set {ln x, x, x², x³, eˣ, x·eˣ, x·ln x} (Eq. 1), selected
// by coefficient of determination, and the linear transfer-time function
// G_p[x] = a₁·x + a₂ (Eq. 2).
//
// Selection: every candidate basis set is fitted and scored AdjR² − 0.002·p
// (parsimony on near-ties), minus 1 when the fitted curve is not
// non-decreasing over the usage range. The highest score wins; on an exact
// tie, the set listed first. The monotonicity check is the costly part of
// scoring, so Fitter.Fit runs it in descending order of the unpenalized
// score and stops once no remaining candidate can rank above the best found.
// The penalty only lowers a score, so this picks exactly the candidate an
// exhaustive scan in list order would, usually after one or two checks.
package fit

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"plbhec/internal/linalg"
)

// ErrTooFewPoints is returned when fewer samples than coefficients are
// supplied.
var ErrTooFewPoints = errors.New("fit: too few points")

// ErrNonFinite is returned when a sample is NaN or ±Inf — corrupted
// profile streams classify here instead of poisoning the normal equations
// and the fitted curves downstream.
var ErrNonFinite = errors.New("fit: non-finite sample")

// ErrDegenerate is returned when the samples carry no usable signal (e.g.
// all x equal).
var ErrDegenerate = errors.New("fit: degenerate sample set")

// Basis is one term of Eq. 1. Eval receives the raw block size x and the
// fitting scale s (the largest sampled x); exponential bases use x/s so
// they stay bounded over the sampled range. ScaleFree marks bases whose
// Eval ignores s entirely: the incremental Fitter can keep normal-equation
// accumulations for all-scale-free candidate sets across refits even as the
// fitting scale moves, while scale-dependent sets must rebuild. feat is the
// basis's column in the feature table (see features), which holds the same
// value Eval returns, bit for bit.
type Basis struct {
	Name      string
	Eval      func(x, s float64) float64
	ScaleFree bool
	feat      int
}

// Columns of the feature table, one per basis of the paper's set.
const (
	featOne = iota
	featLog
	featX
	featX2
	featX3
	featExp
	featXExp
	featXLog
	featInv
	numFeatures
)

// The paper's basis set. Log bases clamp x to a tiny positive value so that
// evaluation at x=0 stays finite (a zero-size block takes ~0 time anyway).
var (
	basisOne  = Basis{"1", func(x, s float64) float64 { return 1 }, true, featOne}
	basisLog  = Basis{"ln x", func(x, s float64) float64 { return math.Log(clampPos(x)) }, true, featLog}
	basisX    = Basis{"x", func(x, s float64) float64 { return x }, true, featX}
	basisX2   = Basis{"x^2", func(x, s float64) float64 { return x * x }, true, featX2}
	basisX3   = Basis{"x^3", func(x, s float64) float64 { return x * x * x }, true, featX3}
	basisExp  = Basis{"e^x", func(x, s float64) float64 { return math.Exp(x / s) }, false, featExp}
	basisXExp = Basis{"x·e^x", func(x, s float64) float64 { return x * math.Exp(x/s) }, false, featXExp}
	basisXLog = Basis{"x·ln x", func(x, s float64) float64 { return x * math.Log(clampPos(x)) }, true, featXLog}
	// The 1/x floor is relative to the fitting scale s: an absolute 1e-9
	// floor put a 1e9 entry in the design matrix at x=0, wrecking the
	// normal-equations conditioning for the {1, x, 1/x} candidate set.
	// Clamping at s·1e-3 bounds the basis value by 1000/s, the same order
	// as the other bases over the sampled range.
	basisInv = Basis{"1/x", func(x, s float64) float64 { return 1 / clampPosTo(x, s*1e-3) }, false, featInv}
)

// features writes every basis value at x under scale s into row (len
// numFeatures), with one ln and one exp shared by the bases that use them.
// Each entry is the exact expression of the matching Basis.Eval, so the
// table and the closures agree bit for bit.
func features(row []float64, x, s float64) {
	l := math.Log(clampPos(x))
	e := math.Exp(x / s)
	row[featOne] = 1
	row[featLog] = l
	row[featX] = x
	row[featX2] = x * x
	row[featX3] = x * x * x
	row[featExp] = e
	row[featXExp] = x * e
	row[featXLog] = x * l
	row[featInv] = 1 / clampPosTo(x, s*1e-3)
}

func clampPos(x float64) float64 {
	return clampPosTo(x, 1e-9)
}

// clampPosTo floors x at floor (itself floored at 1e-9 so a zero scale
// cannot divide by zero).
func clampPosTo(x, floor float64) float64 {
	if floor < 1e-9 {
		floor = 1e-9
	}
	if x < floor {
		return floor
	}
	return x
}

// Model is a fitted curve y(x) = Σ coef_i · basis_i(x).
type Model struct {
	Bases []Basis
	Coef  linalg.Vector
	Scale float64 // the x-scale used by exponential bases
	R2    float64 // coefficient of determination on the fitting samples
	AdjR2 float64 // adjusted for the number of coefficients
}

// Eval returns the model value at x.
func (m Model) Eval(x float64) float64 {
	var y float64
	for i, b := range m.Bases {
		y += m.Coef[i] * b.Eval(x, m.Scale)
	}
	return y
}

// Deriv returns a central-difference derivative at x, used by the
// interior-point solver's Jacobians.
func (m Model) Deriv(x float64) float64 {
	h := 1e-6 * (math.Abs(x) + m.Scale*1e-3)
	if h == 0 {
		h = 1e-9
	}
	return (m.Eval(x+h) - m.Eval(x-h)) / (2 * h)
}

// String names the model, e.g. "0.3·x + 1.2·ln x (R²=0.98)".
func (m Model) String() string {
	var terms []string
	for i, b := range m.Bases {
		terms = append(terms, fmt.Sprintf("%.4g·%s", m.Coef[i], b.Name))
	}
	return fmt.Sprintf("%s (R²=%.3f)", strings.Join(terms, " + "), m.R2)
}

// MonotoneNonDecreasing reports whether the model is non-decreasing on a
// grid over [lo, hi]. The block-size selector prefers monotone models
// because real time-vs-size curves are monotone; a wiggly overfit would
// mislead the equation solver.
func (m Model) MonotoneNonDecreasing(lo, hi float64) bool {
	const steps = 64
	prev := m.Eval(lo)
	for i := 1; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/steps
		y := m.Eval(x)
		if y < prev-1e-12*(math.Abs(prev)+1) {
			return false
		}
		prev = y
	}
	return true
}

// candidateSets are the basis combinations the selector tries, from the
// paper's set. The paper allows combinations; these cover the shapes of
// Fig. 1 (linear CPU curves, saturating/superlinear GPU curves) without
// inviting overfit on 4–8 samples. Set 0 is the line {1, x}. Every Fitter
// reads this one table; nothing writes it.
var candidateSets = [...][]Basis{
	{basisOne, basisX},
	{basisOne, basisLog},
	{basisOne, basisX, basisLog},
	{basisOne, basisX, basisXLog},
	{basisOne, basisX, basisX2},
	{basisOne, basisX, basisX2, basisX3},
	{basisOne, basisX, basisExp},
	{basisOne, basisX, basisXExp},
	{basisOne, basisX, basisInv},
	{basisOne, basisX, basisX2, basisLog},
}

// maxP is the largest coefficient count among the candidates.
const maxP = 4

// FitSamples fits y(x) to the samples by least squares over each candidate
// basis set and returns the model with the best adjusted R², preferring
// models monotone over the sampled range. xs must contain at least two
// distinct values.
func FitSamples(xs, ys []float64) (Model, error) {
	_, hi := minMaxOrZero(xs)
	return FitSamplesOver(xs, ys, hi*1.5)
}

// FitSamplesOver is FitSamples with an explicit evaluation horizon: the
// chosen model must be non-decreasing over [min(xs), useHi]. Schedulers
// extrapolate the fitted curves far beyond the probed block sizes when
// solving the block-size system, and a polynomial that turns over outside
// the sample range would tell the solver a slow device gets *faster* on
// huge blocks — so candidates that misbehave anywhere in the usage range
// are heavily penalized.
//
// It delegates to a fresh incremental Fitter so the one-shot and
// incremental paths share one implementation: the candidate sets, the
// normal-equations solve, the parsimony/monotonicity scoring, and the
// two-point fallback are all defined in Fitter.Fit. Callers with a growing
// sample stream should hold a Fitter directly and skip the per-call setup.
func FitSamplesOver(xs, ys []float64, useHi float64) (Model, error) {
	return NewFitter().Fit(xs, ys, useHi)
}

func minMaxOrZero(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	return minMax(xs)
}

// fitBasis solves the least-squares problem for one basis set by QR, in a
// fresh Scratch: the one-shot path of FitLogCurve and the rare collinear
// fallback of Fitter.Line.
func fitBasis(bases []Basis, xs, ys []float64, scale float64) (Model, error) {
	var sc Scratch
	sc.tabulate(xs, scale)
	return sc.fitQR(bases, ys, scale, totalSS(ys), linalg.NewVector(len(bases)))
}

// rsquared computes R² and adjusted R² of model m on the samples,
// evaluating m through its closures.
func rsquared(m Model, xs, ys []float64) (r2, adj float64) {
	var ssRes float64
	for i, x := range xs {
		d := ys[i] - m.Eval(x)
		ssRes += d * d
	}
	return r2From(ssRes, totalSS(ys), len(xs), len(m.Bases))
}

// totalSS returns Σ(y − ȳ)², the total sum of squares R² compares with.
func totalSS(ys []float64) float64 {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ss float64
	for _, y := range ys {
		t := y - mean
		ss += t * t
	}
	return ss
}

// r2From turns the residual and total sums of squares of an n-sample,
// p-coefficient fit into R² and adjusted R².
func r2From(ssRes, ssTot float64, n, p int) (r2, adj float64) {
	if ssTot == 0 {
		// All y equal: a perfect fit has no residual; call it 1.
		if ssRes < 1e-18 {
			return 1, 1
		}
		return 0, 0
	}
	r2 = 1 - ssRes/ssTot
	nf := float64(n)
	den := nf - float64(p) - 1
	if den <= 0 {
		return r2, r2
	}
	adj = 1 - (1-r2)*(nf-1)/den
	return r2, adj
}

// finiteSamples reports whether every sample in both streams is finite.
func finiteSamples(xs, ys []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return false
		}
	}
	return true
}

// sampleScale returns the largest |x| and whether xs has ≥2 distinct values.
// It is a plain scan (no sort, no allocation): max(|min|, |max|) equals the
// largest absolute value, and min ≠ max detects spread — the hot refit path
// calls this on every fitting round.
func sampleScale(xs []float64) (scale float64, spread bool) {
	lo, hi := minMax(xs)
	scale = math.Abs(hi)
	if a := math.Abs(lo); a > scale {
		scale = a
	}
	if scale == 0 {
		scale = 1
	}
	return scale, lo != hi
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Linear is the transfer-time model G_p[x] = A1·x + A2 of Eq. 2.
type Linear struct {
	A1, A2 float64 // bandwidth slope and latency intercept
	R2     float64
}

// Eval returns the model value at x, floored at 0 (a transfer cannot take
// negative time even if the fitted intercept dips below zero).
func (l Linear) Eval(x float64) float64 {
	y := l.A1*x + l.A2
	if y < 0 {
		return 0
	}
	return y
}

// Deriv returns the slope a₁ (0 when the floor is active).
func (l Linear) Deriv(x float64) float64 {
	if l.A1*x+l.A2 < 0 {
		return 0
	}
	return l.A1
}

// FitLogCurve fits y(x) = a + b·ln x by least squares — the weight model
// HDSS [19] uses for its FLOP/s-per-block-size curves.
func FitLogCurve(xs, ys []float64) (Model, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Model{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Model{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Model{}, ErrDegenerate
	}
	return fitBasis([]Basis{basisOne, basisLog}, xs, ys, scale)
}

// FitLinear fits G_p by ordinary least squares. Like FitSamplesOver it
// delegates to a fresh incremental Fitter (Line), so one-shot and
// incremental transfer fits are numerically identical.
func FitLinear(xs, ys []float64) (Linear, error) {
	return NewFitter().Line(xs, ys)
}
