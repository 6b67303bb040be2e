package sched

import (
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/ipm"
	"plbhec/internal/starpu"
)

// runFig3 replays the Fig. 3 mid-run-slowdown scenario (a GPU degrades to
// 35% speed at t=8s, forcing at least one threshold rebalance) with the
// given solver options and returns the report.
func runFig3(t *testing.T, opt ipm.Options) *starpu.Report {
	t.Helper()
	app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
	clu := cluster.TableI(cluster.Config{
		Machines: 2, Seed: 1, NoiseSigma: cluster.DefaultNoiseSigma,
	})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	gpu := clu.Machines[0].GPUs[0]
	if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
		t.Fatal(err)
	}
	s := NewPLBHeC(Config{InitialBlockSize: 64})
	s.Solver = opt
	rep, err := sess.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWarmStartReducesRebalanceIterations is the headline claim of the
// warm-started solver: on the Fig. 3 rebalance path, starting each re-solve
// from the previous distribution converges in fewer water-filling τ steps
// than solving cold, and the savings are visible through the counters and
// Report.SolverStats.
func TestWarmStartReducesRebalanceIterations(t *testing.T) {
	cold := runFig3(t, ipm.Options{Structured: true})
	warm := runFig3(t, ipm.Options{Structured: true, WarmStart: true})

	for name, rep := range map[string]*starpu.Report{"cold": cold, "warm": warm} {
		if rep.SchedulerStats["rebalances"] < 1 {
			t.Fatalf("%s run: no rebalance fired; scenario is not exercising re-solves", name)
		}
		if rep.SolverStats == nil {
			t.Fatalf("%s run: Report.SolverStats not populated", name)
		}
		if rep.SolverStats.Fallbacks != 0 {
			t.Errorf("%s run: water-filling reported %g fallbacks", name, rep.SolverStats.Fallbacks)
		}
	}
	if cold.SolverStats.WarmStarts != 0 {
		t.Errorf("cold options warm-started %g solves", cold.SolverStats.WarmStarts)
	}
	if warm.SolverStats.WarmStarts < 1 {
		t.Fatalf("warm run recorded no warm starts (stats: %+v)", warm.SolverStats)
	}
	if hr := warm.SolverStats.WarmHitRate(); hr <= 0 || hr > 1 {
		t.Errorf("warm hit rate = %g, want in (0, 1]", hr)
	}

	meanIters := func(rep *starpu.Report) float64 {
		st := rep.SchedulerStats
		solved := st["solverWarmStarts"] + st["solverColdStarts"]
		if solved == 0 {
			t.Fatal("no solves completed")
		}
		return st["solverIterations"] / solved
	}
	coldMean, warmMean := meanIters(cold), meanIters(warm)
	if warmMean >= coldMean {
		t.Errorf("warm start did not reduce mean τ steps: warm %.2f >= cold %.2f",
			warmMean, coldMean)
	}
	t.Logf("mean τ steps/solve: cold %.2f, warm %.2f (warm starts %.0f/%.0f solves)",
		coldMean, warmMean, warm.SolverStats.WarmStarts, warm.SolverStats.Solves)

	// Both runs must finish the same work; warm starting changes solver
	// effort, not the distribution quality, so makespans stay comparable.
	if ratio := warm.Makespan / cold.Makespan; ratio > 1.25 || ratio < 0.8 {
		t.Errorf("warm makespan diverged: %.3f vs cold %.3f", warm.Makespan, cold.Makespan)
	}
}
