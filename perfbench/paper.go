package main

import (
	"fmt"
	"strconv"

	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/starpu"
)

// paperCells are the Fig. 4/5 cells: each application at a small size and
// at the paper's largest size.
var paperCells = []struct {
	kind expt.AppKind
	size int64
}{
	{expt.MM, 4096}, {expt.MM, 65536},
	{expt.GRN, 60000}, {expt.GRN, 140000},
	{expt.BS, 10000}, {expt.BS, 500000},
}

// paperReplicas is how many clusters, each from its own seed, every cell
// runs on per pass; the values are over all of them, which keeps them
// steady from seed to seed.
const paperReplicas = 8

// perturbAt is when the Fig. 3 slowdown and the GPU failure strike, in
// simulated seconds (the repository's Fig. 3 and rebalance scenarios).
const perturbAt = 8

// paperPass is one pass of the paper workload: every Fig. 4/5 cell on the
// four Table I machines under the four paper schedulers, then PLB-HeC on
// the Fig. 3 slowdown cell and on a mid-run GPU-failure cell.
type paperPass struct {
	runs []*simRun
	// greedy[i] and plb[i] index the runs of one Fig. 4/5 cell replica.
	greedy, plb []int
}

func newPaperPass(seed int64) (pass, error) {
	p := &paperPass{}
	for i := 0; i < len(paperCells)*paperReplicas; i++ {
		c := paperCells[i/paperReplicas]
		for _, name := range expt.PaperSchedulers() {
			clu := cluster.TableI(cluster.Config{Machines: 4, Seed: subSeed(seed, i), NoiseSigma: cluster.DefaultNoiseSigma})
			s, err := expt.NewScheduler(name, expt.InitialBlock(c.kind, c.size, 4))
			if err != nil {
				return nil, err
			}
			switch name {
			case expt.Greedy:
				p.greedy = append(p.greedy, len(p.runs))
			case expt.PLBHeC:
				p.plb = append(p.plb, len(p.runs))
			}
			p.runs = append(p.runs, &simRun{
				label: string(c.kind) + "-" + strconv.FormatInt(c.size, 10) + "/" + string(name),
				sess:  starpu.NewSimSession(clu, expt.MakeApp(c.kind, c.size), starpu.SimConfig{}),
				sched: s, main: name == expt.PLBHeC,
			})
		}
	}
	// Fig. 3: the master's GPU slows to 35%; failure: machine B's GPU dies.
	perturbations := []struct {
		label   string
		machine int
		speed   float64
	}{{"fig3-slowdown", 0, 0.35}, {"gpu-failure", 1, 0}}
	for i := 0; i < len(perturbations)*paperReplicas; i++ {
		const size = 32768
		pt := perturbations[i%len(perturbations)]
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: subSeed(seed, len(paperCells)*paperReplicas+i), NoiseSigma: cluster.DefaultNoiseSigma})
		gpu := clu.Machines[pt.machine].GPUs[0]
		sess := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, size), starpu.SimConfig{})
		if err := sess.ScheduleAt(perturbAt, func() { gpu.SetSpeedFactor(pt.speed) }); err != nil {
			return nil, err
		}
		s, err := expt.NewScheduler(expt.PLBHeC, expt.InitialBlock(expt.MM, size, 2))
		if err != nil {
			return nil, err
		}
		p.runs = append(p.runs, &simRun{label: pt.label, sess: sess, sched: s, main: true})
	}
	return p, nil
}

func (p *paperPass) run(_ variant, tr *tracer) { runSims(p.runs, tr) }

func (p *paperPass) hasBare() bool { return false }

func (p *paperPass) outcome() *outcome {
	o := simOutcome(p.runs)
	var speedups []float64
	var reps []*starpu.Report
	for i := range p.plb {
		g, m := p.runs[p.greedy[i]].rep, p.runs[p.plb[i]].rep
		if g == nil || m == nil {
			continue
		}
		speedups = append(speedups, g.Makespan/m.Makespan)
		reps = append(reps, m)
	}
	o.sim["sim_speedup"] = geomean(speedups)
	o.notes["sim_speedup"] = fmt.Sprintf("geometric mean over %d Fig. 4/5 cell replicas", len(speedups))
	o.scheduleQuality(reps)
	return o
}
