package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"plbhec/internal/device"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

// The live workload's size: liveBlocks blocks of liveBlock units per pass,
// dispatched to liveWorkers goroutine workers. The block size sets the
// share of dispatch gaps that hit the second, ~60 µs mode of the gap
// distribution (a worker thread woken from a timed sleep): with blocks of
// 4 to 16 units that share is about 1%, so p99 flips between modes from
// run to run; at 256 units it is a few percent and p99 is steady.
const (
	liveBlocks  = 20000
	liveBlock   = 256
	liveUnits   = liveBlocks * liveBlock
	liveWorkers = 2
)

// countKernel is the live workload's kernel. Per unit it adds a cheap hash
// of the seed and the unit index to a checksum, and it logs every executed
// range, from which the check counts each unit's executions; a block costs
// well under a microsecond beside the runtime's dispatch round trip.
type countKernel struct {
	seed uint64
	sum  atomic.Uint64
	mu   sync.Mutex
	runs [][2]int64 // executed [lo, hi) ranges, guarded by mu
}

func (k *countKernel) Execute(lo, hi int64) {
	var sum uint64
	for i := lo; i < hi; i++ {
		sum += mix(k.seed + uint64(i))
	}
	k.sum.Add(sum)
	k.mu.Lock()
	k.runs = append(k.runs, [2]int64{lo, hi})
	k.mu.Unlock()
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// livePass is one pass of the live workload: greedy with one block in
// flight per worker, on real goroutine workers.
type livePass struct {
	kernel *countKernel
	rep    *starpu.Report
	err    error
}

func newLivePass(seed int64) (pass, error) {
	return &livePass{kernel: &countKernel{seed: mix(uint64(seed)), runs: make([][2]int64, 0, liveBlocks)}}, nil
}

// run builds the live session here rather than at setup, because a live
// session starts its worker goroutines on construction.
func (p *livePass) run(_ variant, tr *tracer) {
	workers := make([]starpu.LiveWorkerSpec, liveWorkers)
	for i := range workers {
		workers[i].Name = fmt.Sprintf("w%d", i)
	}
	sess := starpu.NewLiveSession(tr.kernel(p.kernel), starpu.LiveConfig{
		Workers:    workers,
		TotalUnits: liveUnits,
		Profile:    device.KernelProfile{Name: "count", FlopsPerUnit: 1, CPUEfficiency: 1, GPUEfficiency: 1},
		AppName:    "count",
	})
	g := sched.NewGreedy(sched.Config{InitialBlockSize: liveBlock})
	g.Prefetch = 1
	p.rep, p.err = sess.Run(tr.scheduler(g))
}

func (p *livePass) hasBare() bool { return false }

func (p *livePass) outcome() *outcome {
	o := newOutcome()
	o.live = true
	runErr := p.err
	if runErr == nil {
		runErr = checkSim(&simRun{label: "live", rep: p.rep})
	}
	// Every unit counts as one attempted item that must have run exactly
	// once; a wrong checksum fails them all.
	k := p.kernel
	var want uint64
	for i := uint64(0); i < liveUnits; i++ {
		want += mix(k.seed + i)
	}
	if runErr == nil && k.sum.Load() != want {
		runErr = fmt.Errorf("live: checksum %#x, want %#x", k.sum.Load(), want)
	}
	counts := make([]int32, liveUnits)
	for _, r := range k.runs {
		for i := r[0]; i < r[1]; i++ {
			counts[i]++
		}
	}
	for i, n := range counts {
		err := runErr
		if err == nil && n != 1 {
			err = fmt.Errorf("live: unit %d executed %d times", i, n)
		}
		o.check(err)
	}
	if p.rep == nil {
		return o
	}
	recs := p.rep.Records
	var pickup []float64
	for _, r := range recs {
		pickup = append(pickup, 1e6*(r.ExecStart-r.SubmitTime))
	}
	dispatch, ret := recordGaps(recs)
	o.setTail(o.host, "dispatch_p50_us", dispatch, 0.5)
	o.setTail(o.host, "dispatch_p99_us", dispatch, 0.99)
	l := o.layers
	l["live.blocks"] = float64(len(recs))
	o.setTail(l, "live.pickup_p50_us", pickup, 0.5)
	o.setTail(l, "live.pickup_p99_us", pickup, 0.99)
	l["live.pickup_samples"] = float64(len(pickup))
	o.setTail(l, "live.return_p50_us", ret, 0.5)
	o.setTail(l, "live.return_p99_us", ret, 0.99)
	l["live.return_samples"] = float64(len(ret))
	return o
}
