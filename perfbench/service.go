package main

import (
	"fmt"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
	"plbhec/internal/telemetry"
	"plbhec/internal/workload"
)

// The service workload's size: serviceSessions sessions per pass, each
// offering serviceHorizon simulated seconds of arrivals. At 200 requests/s
// a session's busiest stream stays far below workload.MaxArrivals, which
// would otherwise cut it short silently; a run is made longer by adding
// sessions, never by stretching one.
const (
	serviceSessions = 4
	serviceHorizon  = 300
)

// servicePolicy is the open-system load of one session: two Table I apps
// with Poisson arrivals and bounded admission (the load of the repository's
// BenchmarkServiceThroughput).
func servicePolicy(seed int64) starpu.ServicePolicy {
	return starpu.ServicePolicy{
		Apps: []starpu.ServiceApp{
			{Name: "bs", Profile: expt.MakeApp(expt.BS, 100000).Profile(), SLOSeconds: 0.25,
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 200, Units: 64, Seed: 11}},
			{Name: "mm", Profile: expt.MakeApp(expt.MM, 2048).Profile(), SLOSeconds: 1.0,
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 100, Units: 64, Seed: 23}},
		},
		Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16},
		Horizon:   serviceHorizon,
		Seed:      seed,
	}
}

// serviceSession is one built session with the telemetry hub that serves
// its metrics (what plbsim -listen attaches).
type serviceSession struct {
	sess *starpu.Session
	tel  *telemetry.Telemetry
	rep  *starpu.Report
	err  error
}

// servicePass is one pass of the service workload.
type servicePass struct {
	sessions []*serviceSession
	// gen is the host time spent building the sessions, which generates
	// and merges their arrival streams.
	gen time.Duration
}

func newServicePass(seed int64) (pass, error) {
	p := &servicePass{}
	for i := 0; i < serviceSessions; i++ {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: subSeed(seed, i), NoiseSigma: cluster.DefaultNoiseSigma})
		t0 := time.Now()
		sess, err := starpu.NewServiceSimSession(clu, servicePolicy(subSeed(seed, i)), starpu.SimConfig{})
		p.gen += time.Since(t0)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, pu := range sess.PUs() {
			names = append(names, pu.Name())
		}
		tel := telemetry.New()
		tel.Attach(telemetry.NewRunMetrics(tel.Registry(), names))
		p.sessions = append(p.sessions, &serviceSession{sess: sess, tel: tel})
	}
	return p, nil
}

// run drives every session under the built-in service dispatcher. Service
// sessions accept no other scheduler, so there is nothing to trace: the
// traced variant runs as the plain one.
func (p *servicePass) run(v variant, _ *tracer) {
	for _, s := range p.sessions {
		if v != bare {
			s.sess.AttachTelemetry(s.tel)
		}
		s.rep, s.err = s.sess.RunService()
	}
}

func (p *servicePass) hasBare() bool { return true }

func (p *servicePass) outcome() *outcome {
	o := newOutcome()
	var offered, admitted, shed, queued, within, blocks float64
	var makespans, idle []float64
	var latency []*stats.QuantileSketch
	for i, s := range p.sessions {
		o.check(checkService(i, s))
		if s.rep == nil || s.rep.Service == nil {
			continue
		}
		sv := s.rep.Service
		offered += float64(sv.Offered)
		admitted += float64(sv.Admitted)
		shed += float64(sv.Shed)
		queued += float64(sv.QueuedAtEnd)
		blocks += float64(len(s.rep.Records))
		for a, app := range sv.Apps {
			within += float64(app.WithinSLO)
			if len(latency) <= a {
				latency = append(latency, stats.NewQuantileSketch())
			}
			latency[a].Merge(app.Latency)
		}
		makespans = append(makespans, s.rep.Makespan)
		idle = append(idle, metrics.MeanIdle(s.rep))
	}
	// sim_req_p99_s is the larger of the apps' p99 request latencies, each
	// over all sessions of the pass.
	var p99 float64
	var note string
	for a, sk := range latency {
		n := int(sk.Count())
		if n == 0 {
			continue
		}
		q := 0.99
		if limit := 1 - float64(minTail)/float64(n); q > limit {
			q = limit
		}
		if v := sk.Quantile(q); v >= p99 {
			p99 = v
			note = fmt.Sprintf("app %d: p%.4g of %d requests", a, 100*q, n)
		}
	}
	o.sim["sim_req_p99_s"] = p99
	o.notes["sim_req_p99_s"] = note
	o.sim["sim_slo_miss_frac"] = 1 - ratio(within, offered)
	o.sim["sim_makespan_s"] = geomean(makespans)
	o.notes["sim_makespan_s"] = fmt.Sprintf("geometric mean over %d sessions", len(makespans))
	o.sim["sim_idle_frac"] = mean(idle)
	o.notes["sim_idle_frac"] = fmt.Sprintf("mean over %d sessions", len(idle))
	l := o.layers
	l["starpu.blocks"] = blocks
	l["workload.offered"] = offered
	l["workload.admitted"] = admitted
	l["workload.shed"] = shed
	l["workload.queued_at_end"] = queued
	l["workload.shed_frac"] = ratio(shed, offered)
	l["workload.gen_s"] = p.gen.Seconds()
	return o
}

// checkService verifies one session: it finished, admission conserved
// requests (Offered == Admitted + Shed + QueuedAtEnd, per app and in
// total), no arrival stream reached workload.MaxArrivals (where generation
// stops silently), every admitted request completed, the blocks carried
// exactly the completed requests' units, and no block ends after the
// makespan.
func checkService(i int, s *serviceSession) error {
	if s.err != nil {
		return fmt.Errorf("service session %d: %w", i, s.err)
	}
	sv := s.rep.Service
	if sv.Offered != sv.Admitted+sv.Shed+sv.QueuedAtEnd {
		return fmt.Errorf("service session %d: offered %d != admitted %d + shed %d + queued %d",
			i, sv.Offered, sv.Admitted, sv.Shed, sv.QueuedAtEnd)
	}
	var units int64
	for _, a := range sv.Apps {
		if a.Offered != a.Admitted+a.Shed+a.QueuedAtEnd {
			return fmt.Errorf("service session %d app %s: offered %d != admitted %d + shed %d + queued %d",
				i, a.Name, a.Offered, a.Admitted, a.Shed, a.QueuedAtEnd)
		}
		if a.Offered >= workload.MaxArrivals {
			return fmt.Errorf("service session %d app %s: %d arrivals reach the generator cap %d; the stream was cut short",
				i, a.Name, a.Offered, workload.MaxArrivals)
		}
		if a.RequestsDone != a.Admitted {
			return fmt.Errorf("service session %d app %s: %d of %d admitted requests completed",
				i, a.Name, a.RequestsDone, a.Admitted)
		}
		units += a.UnitsDone
	}
	var recUnits int64
	for _, rec := range s.rep.Records {
		recUnits += rec.Hi - rec.Lo
		if rec.ExecEnd > s.rep.Makespan+1e-9 {
			return fmt.Errorf("service session %d: block %d ends at %g, after the makespan %g",
				i, rec.Seq, rec.ExecEnd, s.rep.Makespan)
		}
	}
	if recUnits != units {
		return fmt.Errorf("service session %d: blocks carry %d units, completed requests %d", i, recUnits, units)
	}
	return nil
}
