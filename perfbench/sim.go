package main

import (
	"fmt"

	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
)

// simRun is one simulated session of a pass and what it produced.
type simRun struct {
	label string
	sess  *starpu.Session
	sched starpu.Scheduler
	// main marks a run under the workload's main policy, PLB-HeC.
	main bool
	rep  *starpu.Report
	err  error
}

// runSims runs every session, each under its scheduler (timed when tr is
// non-nil).
func runSims(runs []*simRun, tr *tracer) {
	for _, r := range runs {
		r.rep, r.err = r.sess.Run(tr.scheduler(r.sched))
	}
}

// checkSim verifies one simulated run: it finished, work was conserved
// (the records' units sum to TotalUnits), and no record ends after the
// makespan.
func checkSim(r *simRun) error {
	if r.err != nil {
		return fmt.Errorf("%s: %w", r.label, r.err)
	}
	var units int64
	for _, rec := range r.rep.Records {
		units += rec.Hi - rec.Lo
		if rec.ExecEnd > r.rep.Makespan+1e-9 {
			return fmt.Errorf("%s: block %d ends at %g, after the makespan %g",
				r.label, rec.Seq, rec.ExecEnd, r.rep.Makespan)
		}
	}
	if units != r.rep.TotalUnits {
		return fmt.Errorf("%s: records cover %d units, want %d", r.label, units, r.rep.TotalUnits)
	}
	return nil
}

// simOutcome checks every run and reads the scheduler, solver and engine
// counters of the pass from the reports.
func simOutcome(runs []*simRun) *outcome {
	o := newOutcome()
	var blocks, solves, fallbacks, warm, cold, iters, solveSec float64
	var fits, rounds, modelUnits, mainUnits, rebalances float64
	for _, r := range runs {
		o.check(checkSim(r))
		if r.rep == nil {
			continue
		}
		blocks += float64(len(r.rep.Records))
		if ss := r.rep.SolverStats; ss != nil {
			solves += ss.Solves
			fallbacks += ss.Fallbacks
			warm += ss.WarmStarts
			cold += ss.ColdStarts
			iters += ss.Iterations
			solveSec += ss.SolveSeconds
		}
		if r.main {
			st := r.rep.SchedulerStats
			fits += st["fits"]
			rounds += st["modelRounds"]
			modelUnits += st["modelUnits"]
			rebalances += st["rebalances"]
			mainUnits += float64(r.rep.TotalUnits)
		}
	}
	l := o.layers
	l["starpu.blocks"] = blocks
	l["ipm.solves"] = solves
	l["ipm.fallbacks"] = fallbacks
	l["ipm.fallback_frac"] = ratio(fallbacks, solves)
	l["ipm.iters_per_solve"] = ratio(iters, warm+cold)
	l["ipm.warm_frac"] = ratio(warm, warm+cold)
	l["ipm.busy_s"] = solveSec
	l["fit.passes"] = fits
	l["profile.rounds"] = rounds
	l["profile.units_frac"] = ratio(modelUnits, mainUnits)
	l["sched.rebalances"] = rebalances
	return o
}

// scheduleQuality sets the schedule-quality values of reps, the main
// policy's runs: geometric-mean makespan, mean idle fraction, and the
// percentile of block latency (submission to completion) pooled over the
// runs.
func (o *outcome) scheduleQuality(reps []*starpu.Report) {
	var makespans, idle, latency []float64
	for _, rep := range reps {
		makespans = append(makespans, rep.Makespan)
		idle = append(idle, metrics.MeanIdle(rep))
		for _, rec := range rep.Records {
			latency = append(latency, rec.TotalSeconds())
		}
	}
	o.makespans = makespans
	o.sim["sim_makespan_s"] = geomean(makespans)
	o.notes["sim_makespan_s"] = fmt.Sprintf("geometric mean over %d runs", len(makespans))
	o.sim["sim_idle_frac"] = mean(idle)
	o.notes["sim_idle_frac"] = fmt.Sprintf("mean over %d runs", len(idle))
	o.setTail(o.sim, "sim_req_p99_s", latency, 0.99)
}

// setTail stores the p-percentile of xs under name in dst, with a note
// saying which percentile of how many samples it is.
func (o *outcome) setTail(dst map[string]float64, name string, xs []float64, p float64) {
	t := percentile(xs, p)
	dst[name] = t.Value
	o.notes[name] = t.String()
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
