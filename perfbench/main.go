// Command perfbench is the repository's benchmark. It builds one of four
// workloads from a seed, runs it repeatedly for a fixed number of seconds,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. See README.md in this directory for what each workload
// and metric means.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// notApplicable is reported for an end-to-end metric that the workload has
// no quantity for (see README.md); every run line carries every metric.
const notApplicable = 1.0

// minSetups is how many times a run at least builds its inputs, so that
// setup_s is a median even when few passes fit in the time budget.
const minSetups = 5

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"alloc_mb", "MB"},
	{"sim_speedup", "ratio"},
	{"sim_makespan_s", "sim_s"},
	{"sim_idle_frac", "ratio"},
	{"sim_req_p99_s", "sim_s"},
	{"sim_slo_miss_frac", "ratio"},
	{"dispatch_p50_us", "us"},
	{"dispatch_p99_us", "us"},
}

// perLayer lists the metrics of a traced run, in report order.
var perLayer = []metricDef{
	{"sched.calls", "count"},
	{"sched.busy_s", "s"},
	{"sched.busy_frac", "ratio"},
	{"sched.call_p50_us", "us"},
	{"sched.call_p99_us", "us"},
	{"sched.call_samples", "count"},
	{"sched.self_s", "s"},
	{"sched.rebalances", "count"},
	{"ipm.solves", "count"},
	{"ipm.fallbacks", "count"},
	{"ipm.fallback_frac", "ratio"},
	{"ipm.iters_per_solve", "count"},
	{"ipm.warm_frac", "ratio"},
	{"ipm.busy_s", "s"},
	{"fit.passes", "count"},
	{"profile.rounds", "count"},
	{"profile.units_frac", "ratio"},
	{"starpu.blocks", "count"},
	{"starpu.self_s", "s"},
	{"starpu.self_us_per_block", "us"},
	{"workload.offered", "count"},
	{"workload.admitted", "count"},
	{"workload.shed", "count"},
	{"workload.queued_at_end", "count"},
	{"workload.shed_frac", "ratio"},
	{"workload.gen_s", "s"},
	{"telemetry.overhead_frac", "ratio"},
	{"live.blocks", "count"},
	{"live.pickup_p50_us", "us"},
	{"live.pickup_p99_us", "us"},
	{"live.pickup_samples", "count"},
	{"live.return_p50_us", "us"},
	{"live.return_p99_us", "us"},
	{"live.return_samples", "count"},
	{"kernel.calls", "count"},
	{"kernel.busy_s", "s"},
	{"live.self_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// workloadDef builds the passes of one workload.
type workloadDef struct {
	build func(seed int64) (pass, error)
	// reference, when set, runs an untimed reference schedule once after
	// the timed phase, on inputs of its own, and completes the first
	// pass's values.
	reference func(seed int64, first *outcome) error
}

// workloads maps each workload name to its definition.
var workloads = map[string]workloadDef{
	"paper":   {build: newPaperPass},
	"scale":   {build: newScalePass, reference: scaleReference},
	"service": {build: newServicePass},
	"live":    {build: newLivePass},
}

// subSeed derives the seed of item i (a cluster, a session) of a run
// seeded with seed.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i)*104729 + 1 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, scale, service or live")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	traceOn := fs.Int("trace", 0, "1 for a traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || !(*seconds > 0) || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper|scale|service|live, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d nproc=%d rev=%s\n",
		*name, *seed, *seconds, *traceOn, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), revision())
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if *traceOn == 1 {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		v := res.values[d.name]
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		note := res.notes[d.name]
		fmt.Fprintf(stdout, "# %-26s %14.6g %-6s %s\n", d.name, v, d.unit, note)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "# FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// revision returns the VCS revision the binary was built from, or
// "unknown" when the build carried none (a source tree outside git).
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// variant selects how a pass runs.
type variant int

const (
	plain  variant = iota // the workload as defined, tracing off
	traced                // scheduler callbacks and kernel calls timed
	bare                  // service only: without the RunMetrics sink
)

// A pass is one fixed amount of work whose inputs are already built. Every
// pass of a run is built from the same seed, so sim passes do identical
// work.
type pass interface {
	// run executes the pass; it is the timed part. tr is non-nil exactly
	// when v is traced.
	run(v variant, tr *tracer)
	// outcome checks what run produced and derives the pass's values.
	outcome() *outcome
	// hasBare reports whether the pass distinguishes the bare variant.
	hasBare() bool
}

// outcome is what one pass produced.
type outcome struct {
	attempted, failed int
	failures          []string
	// sim holds end-to-end values computed from simulated schedules; they
	// must repeat exactly from pass to pass of one seed.
	sim map[string]float64
	// host holds end-to-end values measured on the host clock (live
	// engine); a run reports their median over passes.
	host map[string]float64
	// notes explains how a value was read (percentile, sample count).
	notes map[string]string
	// layers holds per-layer counters read from the reports; times in it
	// are host seconds and are reported as medians over traced passes.
	layers map[string]float64
	// makespans keeps the main policy's makespan per simulated run, for
	// a reference comparison.
	makespans []float64
	// live marks a pass on the live engine (its engine layer is live.*).
	live bool
}

func newOutcome() *outcome {
	return &outcome{sim: map[string]float64{}, host: map[string]float64{},
		notes: map[string]string{}, layers: map[string]float64{}}
}

// check counts one attempted item and records err as its failure.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 8 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// result is what a run reports.
type result struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	notes             map[string]string
}

// measure runs passes of the workload until the budget is spent (at least
// one round) and reduces them to the reported metrics.
func measure(w workloadDef, seed int64, budget time.Duration, traceOn bool) (*result, error) {
	res := &result{values: map[string]float64{}, notes: map[string]string{}}
	walls := map[variant][]float64{}
	// perBlock holds each untraced sim pass's host microseconds per block.
	var setups, allocs, perBlock []float64
	var first *outcome
	var hostRuns, layerRuns []map[string]float64
	p, err := timedBuild(w.build, seed, &setups)
	if err != nil {
		return nil, err
	}
	variants := []variant{plain}
	if traceOn {
		variants = append(variants, traced)
		if p.hasBare() {
			variants = append(variants, bare)
		}
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for _, v := range variants {
			if p == nil {
				if p, err = timedBuild(w.build, seed, &setups); err != nil {
					return nil, err
				}
			}
			var tr *tracer
			if v == traced {
				tr = &tracer{}
			}
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t1 := time.Now()
			p.run(v, tr)
			wall := time.Since(t1).Seconds()
			runtime.ReadMemStats(&m1)
			o := p.outcome()
			p = nil
			walls[v] = append(walls[v], wall)
			if first == nil {
				first = o
			} else if err := sameSim(first.sim, o.sim); err != nil {
				o.failed = min(o.failed+1, o.attempted)
				o.failures = append(o.failures, err.Error())
			}
			switch v {
			case plain:
				allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
				hostRuns = append(hostRuns, o.host)
				if b := o.layers["starpu.blocks"]; b > 0 {
					perBlock = append(perBlock, 1e6*wall/b)
				}
			case traced:
				layers, notes := layerValues(o, tr, wall)
				layerRuns = append(layerRuns, layers)
				for k, n := range notes {
					res.notes[k] = n
				}
			}
			res.attempted += o.attempted
			res.failed += o.failed
			if room := 8 - len(res.failures); room > 0 {
				res.failures = append(res.failures, o.failures[:min(room, len(o.failures))]...)
			}
		}
	}
	for len(setups) < minSetups {
		if _, err := timedBuild(w.build, seed, &setups); err != nil {
			return nil, err
		}
	}
	if w.reference != nil {
		if err := w.reference(seed, first); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}

	v := res.values
	v["setup_s"] = median(setups)
	v["wall_s"] = median(walls[plain])
	v["alloc_mb"] = median(allocs)
	res.notes["setup_s"] = fmt.Sprintf("median of %d setups", len(setups))
	res.notes["wall_s"] = fmt.Sprintf("median of %d passes", len(walls[plain]))
	for name, x := range first.sim {
		v[name] = x
		res.notes[name] = first.notes[name]
	}
	// On the sim engine, the dispatch round trip is the host time the
	// program spends per simulated block, read over the passes.
	if len(perBlock) > 0 {
		for name, p := range map[string]float64{"dispatch_p50_us": 0.5, "dispatch_p99_us": 0.99} {
			t := percentile(perBlock, p)
			v[name] = t.Value
			res.notes[name] = "host us per simulated block; " + strings.Replace(t.String(), "samples", "passes", 1)
		}
	}
	// Host-clock quality values are medians over the untraced passes.
	for name := range first.host {
		var xs []float64
		for _, h := range hostRuns {
			xs = append(xs, h[name])
		}
		v[name] = median(xs)
		res.notes[name] = fmt.Sprintf("%s; median of %d passes", first.notes[name], len(xs))
	}
	for _, d := range endToEnd {
		if _, ok := v[d.name]; !ok {
			v[d.name] = notApplicable
			res.notes[d.name] = "n/a on this workload"
		}
	}
	if traceOn {
		for _, d := range perLayer {
			var xs []float64
			for _, l := range layerRuns {
				xs = append(xs, l[d.name])
			}
			v[d.name] = median(xs)
		}
		if w := median(walls[plain]); w > 0 {
			v["trace.overhead_frac"] = median(walls[traced])/w - 1
			if len(walls[bare]) > 0 {
				v["telemetry.overhead_frac"] = w/median(walls[bare]) - 1
			}
		}
		v["failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	return res, nil
}

// timedBuild builds one pass and appends its build time to setups.
func timedBuild(build func(int64) (pass, error), seed int64, setups *[]float64) (pass, error) {
	t0 := time.Now()
	p, err := build(seed)
	*setups = append(*setups, time.Since(t0).Seconds())
	return p, err
}

// sameSim reports an error when a pass's simulated values differ from the
// first pass's: the simulator must be deterministic for a fixed seed.
func sameSim(want, got map[string]float64) error {
	for k, w := range want {
		if g := got[k]; g != w {
			return fmt.Errorf("%s = %v in a later pass, %v in the first: simulation not deterministic", k, g, w)
		}
	}
	if len(got) != len(want) {
		return errors.New("later pass reported a different set of simulated values")
	}
	return nil
}

// layerValues derives one traced pass's per-layer metrics from its
// outcome, its tracer and its wall time, with notes on the percentiles.
func layerValues(o *outcome, tr *tracer, wall float64) (map[string]float64, map[string]string) {
	l := map[string]float64{}
	notes := map[string]string{}
	for k, x := range o.layers {
		l[k] = x
	}
	for k, n := range o.notes {
		notes[k] = n
	}
	busy := tr.busy()
	if n := len(tr.calls); n > 0 {
		us := make([]float64, n)
		for i, c := range tr.calls {
			us[i] = 1e6 * c
		}
		p50, p99 := percentile(us, 0.5), percentile(us, 0.99)
		l["sched.calls"] = float64(n)
		l["sched.busy_s"] = busy
		l["sched.busy_frac"] = busy / wall
		l["sched.call_p50_us"] = p50.Value
		l["sched.call_p99_us"] = p99.Value
		l["sched.call_samples"] = float64(n)
		l["sched.self_s"] = busy - l["ipm.busy_s"]
		notes["sched.call_p99_us"] = p99.String()
	}
	if o.live {
		kb := float64(tr.kernelNanos.Load()) / 1e9
		l["kernel.calls"] = float64(tr.kernelCalls.Load())
		l["kernel.busy_s"] = kb
		l["live.self_s"] = wall - busy - kb/liveWorkers
	} else {
		l["starpu.self_s"] = wall - busy
		if b := l["starpu.blocks"]; b > 0 {
			l["starpu.self_us_per_block"] = 1e6 * (wall - busy) / b
		}
	}
	return l, notes
}
