package main

import (
	"math"
	"slices"
	"sort"
	"testing"

	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/starpu"
	"plbhec/internal/workload"
)

// simulateMM runs PLB-HeC on MM 4096 over the four Table I machines,
// through tr's wrapper when tr is non-nil.
func simulateMM(t *testing.T, tr *tracer) *starpu.Report {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: 4, Seed: 3, NoiseSigma: cluster.DefaultNoiseSigma})
	s, err := expt.NewScheduler(expt.PLBHeC, expt.InitialBlock(expt.MM, 4096, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, 4096), starpu.SimConfig{}).Run(tr.scheduler(s))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTracedSchedulerForwardsStats(t *testing.T) {
	plain := simulateMM(t, nil)
	tr := &tracer{}
	traced := simulateMM(t, tr)
	if traced.SolverStats == nil || traced.SolverStats.Solves == 0 {
		t.Fatalf("traced run lost the solver stats: %+v", traced.SolverStats)
	}
	// Every counter but the host-timed SolveSeconds must match.
	ts, ps := *traced.SolverStats, *plain.SolverStats
	ts.SolveSeconds, ps.SolveSeconds = 0, 0
	if ts != ps {
		t.Errorf("traced solver stats %+v, untraced %+v", ts, ps)
	}
	if traced.SchedulerStats["fits"] != plain.SchedulerStats["fits"] || traced.SchedulerStats["fits"] == 0 {
		t.Errorf("fits: traced %g, untraced %g", traced.SchedulerStats["fits"], plain.SchedulerStats["fits"])
	}
	if traced.Makespan != plain.Makespan {
		t.Errorf("tracing changed the schedule: makespan %g, untraced %g", traced.Makespan, plain.Makespan)
	}
	// One Start plus one TaskFinished per block.
	if got, want := len(tr.calls), len(traced.Records)+1; got != want {
		t.Errorf("traced %d callbacks, want %d", got, want)
	}
}

// noStats is a scheduler without a Stats method.
type noStats struct{ starpu.Scheduler }

func TestTracedSchedulerWithoutStats(t *testing.T) {
	s := (&tracer{}).scheduler(noStats{})
	if st := s.(starpu.StatsReporter).Stats(); st != nil {
		t.Errorf("Stats of a scheduler without stats = %v, want nil", st)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		name    string
		n       int
		p       float64
		want    float64
		wantPct float64
	}{
		// 2000 samples: p99 is rank 1980, with 20 samples beyond it.
		{"p99 with enough tail", 2000, 0.99, 1980, 99},
		// 1100 samples: rank 1089 leaves 11 beyond it.
		{"p99 just enough", 1100, 0.99, 1089, 99},
		// 500 samples: p99 (rank 495) has 5 beyond; rank 490 is the
		// highest with 10 beyond.
		{"p99 capped", 500, 0.99, 490, 98},
		{"median", 500, 0.5, 250, 50},
		// 15 samples: only ranks up to 5 have 10 beyond.
		{"median capped", 15, 0.5, 5, 100 * 5.0 / 15},
		// 10 samples: no rank has 10 beyond; the median is reported.
		{"too few", 10, 0.99, 5, 50},
	} {
		got := percentile(seq(c.n), c.p)
		if got.Value != c.want || math.Abs(got.Pct-c.wantPct) > 1e-9 || got.N != c.n {
			t.Errorf("%s: percentile(%d samples, %g) = %+v, want value %g at p%g of %d",
				c.name, c.n, c.p, got, c.want, c.wantPct, c.n)
		}
	}
	if got := percentile(nil, 0.99); got != (tail{}) {
		t.Errorf("percentile of no samples = %+v, want zero", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4, 16}, 4},
		{[]float64{2}, 2},
		{[]float64{0.5, 2}, 1},
		{nil, 0},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestRecordGaps(t *testing.T) {
	// Two units, records out of order. Unit 0 runs [1,2], then [3.5,4]
	// submitted at 3; unit 1 runs [0,1], [1,3] submitted at 0.5, and [3,5]
	// submitted at 3.
	recs := []starpu.TaskRecord{
		{PU: 1, SubmitTime: 3, ExecStart: 3, ExecEnd: 5},
		{PU: 0, SubmitTime: 3, ExecStart: 3.5, ExecEnd: 4},
		{PU: 1, SubmitTime: 0, ExecStart: 0, ExecEnd: 1},
		{PU: 0, SubmitTime: 0, ExecStart: 1, ExecEnd: 2},
		{PU: 1, SubmitTime: 0.5, ExecStart: 1, ExecEnd: 3},
	}
	dispatch, ret := recordGaps(recs)
	sort.Float64s(dispatch)
	sort.Float64s(ret)
	// Unit 0: dispatch 3.5-2 = 1.5 s, return 3-2 = 1 s. Unit 1: dispatch
	// 1-1 = 0 and 3-3 = 0, return 0.5-1 = -0.5 s and 3-3 = 0.
	if want := []float64{0, 0, 1.5e6}; !slices.Equal(dispatch, want) {
		t.Errorf("dispatch gaps = %v, want %v", dispatch, want)
	}
	if want := []float64{-0.5e6, 0, 1e6}; !slices.Equal(ret, want) {
		t.Errorf("return gaps = %v, want %v", ret, want)
	}
}

func TestCheckSimRejectsBrokenReports(t *testing.T) {
	rep := simulateMM(t, nil)
	if err := checkSim(&simRun{label: "ok", rep: rep}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	lost := *rep
	lost.Records = rep.Records[1:]
	if checkSim(&simRun{label: "lost", rep: &lost}) == nil {
		t.Error("a report missing a block passed the work-conservation check")
	}
	late := *rep
	late.Makespan = rep.Makespan / 2
	if checkSim(&simRun{label: "late", rep: &late}) == nil {
		t.Error("a report with blocks past the makespan passed")
	}
}

func TestCheckServiceRejectsBrokenReports(t *testing.T) {
	pol := servicePolicy(5)
	pol.Horizon = 5
	sess, err := starpu.NewServiceSimSession(cluster.TableI(cluster.Config{Machines: 2, Seed: 5}), pol, starpu.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunService()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkService(0, &serviceSession{rep: rep}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	// broken returns a copy of rep whose service section f altered.
	broken := func(f func(sv *starpu.ServiceReport)) *serviceSession {
		r, sv := *rep, *rep.Service
		sv.Apps = append([]starpu.AppServiceStats(nil), sv.Apps...)
		f(&sv)
		r.Service = &sv
		return &serviceSession{rep: &r}
	}
	for name, f := range map[string]func(*starpu.ServiceReport){
		"lost request":     func(sv *starpu.ServiceReport) { sv.Offered++ },
		"lost app request": func(sv *starpu.ServiceReport) { sv.Apps[1].Shed-- },
		"truncated stream": func(sv *starpu.ServiceReport) {
			a := &sv.Apps[0]
			a.Shed += workload.MaxArrivals - a.Offered
			a.Offered = workload.MaxArrivals
		},
		"unfinished request": func(sv *starpu.ServiceReport) { sv.Apps[0].RequestsDone-- },
		"lost units":         func(sv *starpu.ServiceReport) { sv.Apps[0].UnitsDone++ },
	} {
		if checkService(0, broken(f)) == nil {
			t.Errorf("%s: broken report passed", name)
		}
	}
}

func TestLiveCheckCountsEveryUnit(t *testing.T) {
	p, err := newLivePass(3)
	if err != nil {
		t.Fatal(err)
	}
	p.run(plain, nil)
	k := p.(*livePass).kernel
	k.runs = append(k.runs, [2]int64{7, 8})
	if o := p.outcome(); o.attempted != liveUnits || o.failed != 1 {
		t.Errorf("a unit run twice: %d of %d failed, want 1 of %d", o.failed, o.attempted, liveUnits)
	}
	k.runs = k.runs[:len(k.runs)-1]
	k.sum.Add(1)
	if o := p.outcome(); o.failed != liveUnits {
		t.Errorf("a wrong checksum: %d of %d failed, want all", o.failed, o.attempted)
	}
}

// TestWorkloadsPassChecks runs one pass of each workload on the default
// seed and one other, and requires every output check to pass and the
// simulated values to be present.
func TestWorkloadsPassChecks(t *testing.T) {
	for name, w := range workloads {
		if name == "scale" && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 2} {
			p, err := w.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			p.run(plain, nil)
			o := p.outcome()
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s seed %d: %d of %d failed: %v", name, seed, o.failed, o.attempted, o.failures)
			}
			for k, v := range o.sim {
				if !(v > 0) {
					t.Errorf("%s seed %d: %s = %g, want > 0", name, seed, k, v)
				}
			}
		}
	}
}
