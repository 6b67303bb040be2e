package main

import (
	"fmt"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/ipm"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

// The scale workload's size: scaleClusters generated clusters per pass,
// each of scaleNodes nodes with one CPU and scaleGPUs GPUs, running a
// matrix multiplication of scaleUnits lines (the units-per-PU ratio of the
// repository's Sim10kPU benchmark).
const (
	scaleClusters = 4
	scaleNodes    = 600
	scaleGPUs     = 4
	scaleUnits    = 4 << 20
)

// scalePass is one pass of the scale workload: PLB-HeC with the structured,
// warm-started solver on generated thousand-PU clusters.
type scalePass struct {
	runs []*simRun
}

func newScalePass(seed int64) (pass, error) {
	p := &scalePass{}
	for i := 0; i < scaleClusters; i++ {
		s := sched.NewPLBHeC(sched.Config{InitialBlockSize: 16})
		s.Solver = ipm.Options{Structured: true, WarmStart: true}
		p.runs = append(p.runs, &simRun{
			label: fmt.Sprintf("synthetic-%d/plb-hec", i),
			sess:  starpu.NewSimSession(scaleCluster(seed, i), apps.NewMatMul(apps.MatMulConfig{N: scaleUnits}), starpu.SimConfig{}),
			sched: s, main: true,
		})
	}
	return p, nil
}

// scaleCluster builds generated cluster i of a run seeded with seed.
func scaleCluster(seed int64, i int) *cluster.Cluster {
	return cluster.Synthetic(scaleNodes, scaleGPUs, cluster.Config{
		Seed: subSeed(seed, i), NoiseSigma: cluster.DefaultNoiseSigma,
	})
}

func (p *scalePass) run(_ variant, tr *tracer) { runSims(p.runs, tr) }

func (p *scalePass) hasBare() bool { return false }

func (p *scalePass) outcome() *outcome {
	o := simOutcome(p.runs)
	var reps []*starpu.Report
	for _, r := range p.runs {
		if r.rep != nil {
			reps = append(reps, r.rep)
		}
	}
	o.scheduleQuality(reps)
	return o
}

// scaleReference runs greedy with the same initial block size on freshly
// built copies of the run's clusters and sets sim_speedup from the first
// pass's PLB-HeC makespans.
func scaleReference(seed int64, first *outcome) error {
	if len(first.makespans) != scaleClusters {
		return fmt.Errorf("first pass has %d PLB-HeC makespans, want %d", len(first.makespans), scaleClusters)
	}
	var speedups []float64
	for i := 0; i < scaleClusters; i++ {
		rep, err := starpu.NewSimSession(scaleCluster(seed, i), apps.NewMatMul(apps.MatMulConfig{N: scaleUnits}), starpu.SimConfig{}).
			Run(sched.NewGreedy(sched.Config{InitialBlockSize: 16}))
		if err := checkSim(&simRun{label: fmt.Sprintf("synthetic-%d/greedy", i), rep: rep, err: err}); err != nil {
			return err
		}
		speedups = append(speedups, rep.Makespan/first.makespans[i])
	}
	first.sim["sim_speedup"] = geomean(speedups)
	first.notes["sim_speedup"] = fmt.Sprintf("geometric mean over %d clusters; greedy run once, untimed", len(speedups))
	return nil
}
