package main

import (
	"sync/atomic"
	"time"

	"plbhec/internal/starpu"
)

// tracer collects host time spent inside the layers the benchmark calls
// into: scheduler callbacks and live kernel executions. It exists only in
// traced runs; untraced runs pass the bare scheduler and kernel.
type tracer struct {
	// calls holds the duration of every scheduler callback, in seconds.
	// Callbacks are serialized by the runtime, so no lock is needed.
	calls []float64
	// kernelCalls and kernelNanos are updated from every live worker.
	kernelCalls atomic.Int64
	kernelNanos atomic.Int64
}

// busy returns the total scheduler callback time in seconds.
func (t *tracer) busy() float64 {
	var s float64
	for _, c := range t.calls {
		s += c
	}
	return s
}

// scheduler wraps s so that its callbacks are timed, or returns s as is
// when t is nil.
func (t *tracer) scheduler(s starpu.Scheduler) starpu.Scheduler {
	if t == nil {
		return s
	}
	return &tracedScheduler{inner: s, tr: t}
}

// kernel wraps k so that its executions are timed, or returns k as is when
// t is nil.
func (t *tracer) kernel(k starpu.LiveKernel) starpu.LiveKernel {
	if t == nil {
		return k
	}
	return &tracedKernel{inner: k, tr: t}
}

// tracedScheduler times Start and TaskFinished of the scheduler it wraps.
// It forwards Stats: Session.Run type-asserts StatsReporter on the
// scheduler it is given, so without forwarding a traced run would lose
// the solver and fit counters.
type tracedScheduler struct {
	inner starpu.Scheduler
	tr    *tracer
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Start(sess *starpu.Session) {
	t0 := time.Now()
	s.inner.Start(sess)
	s.tr.calls = append(s.tr.calls, time.Since(t0).Seconds())
}

func (s *tracedScheduler) TaskFinished(sess *starpu.Session, rec starpu.TaskRecord) {
	t0 := time.Now()
	s.inner.TaskFinished(sess, rec)
	s.tr.calls = append(s.tr.calls, time.Since(t0).Seconds())
}

// Stats implements starpu.StatsReporter by forwarding to the wrapped
// scheduler (nil when it reports none).
func (s *tracedScheduler) Stats() map[string]float64 {
	if sr, ok := s.inner.(starpu.StatsReporter); ok {
		return sr.Stats()
	}
	return nil
}

// tracedKernel times every Execute of the live kernel it wraps.
type tracedKernel struct {
	inner starpu.LiveKernel
	tr    *tracer
}

func (k *tracedKernel) Execute(lo, hi int64) {
	t0 := time.Now()
	k.inner.Execute(lo, hi)
	k.tr.kernelNanos.Add(int64(time.Since(t0)))
	k.tr.kernelCalls.Add(1)
}
