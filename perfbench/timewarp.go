package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"hope"
	"hope/internal/ids"
	"hope/internal/timewarp"
)

// The timewarp workload runs PHOLD through timewarp.Parallel: real
// stragglers cause real denies and cascades, with no modelled latency,
// rpc or wire. Each session is one short simulation; its events commit
// in bulk when it ends, so a session's commit latency is the
// simulation's wall time from first issue to commit.
//
// The tracker's cost per event grows with the length of the speculative
// history, which only commits at the end, so a simulation's cost grows
// faster than its horizon. This horizon (about 100 events, 0.15 s per
// simulation on a 2-core host) keeps tracker affirm the larger part of
// the CPU, as in longer simulations, while a run still holds over a
// hundred simulations.
var twConfig = timewarp.Config{LPs: 4, Population: 4, Horizon: 150, MaxDelta: 10}

func timewarpSession(s *session) error {
	cfg := twConfig
	cfg.Seed = uint64(s.seed)
	ref := timewarp.Sequential(cfg)

	// Parallel builds its runtime internally; set-up is measured on an
	// identical runtime with the same processes, which Parallel pays for
	// inside its timed call. Tearing that runtime down is not set-up.
	s.beginSetup()
	setupRT, err := timewarpSetup(cfg)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(s.setupStart)
	setupRT.Shutdown()
	for _, err := range setupRT.Wait() {
		return fmt.Errorf("setup: %w", err)
	}
	o := s.observer()

	// An option hands over Parallel's runtime as it is being built, for
	// the flight record and the live-interval sampler. Both read it only
	// after its first Spawn, which registers process 1 with the observer.
	built := make(chan *hope.Runtime, 1)
	capture := func(r *hope.Runtime) { built <- r }
	var got timewarp.Result
	var perr error
	done := make(chan struct{})
	s.beginDrive()
	s.setup = setup
	go func() {
		defer close(done)
		got, perr = timewarp.Parallel(cfg, capture,
			hope.WithPolicy(hope.Policy{Output: io.Discard, Observer: o}))
	}()
	rt := <-built
	s.rts = append(s.rts, rt)
	spawned := func() bool { return o.ProcName(1) != ids.Proc(1).String() }
	for !spawned() && !isClosed(done) {
		time.Sleep(20 * time.Microsecond)
	}
	if spawned() {
		s.sampleLive()
	}
	ok := s.await(done)
	s.endDrive()
	s.attempted = ref.Events
	s.correct = true
	if !ok {
		// Parallel shuts its runtime down itself; a stopped session's
		// runtime is stopped here so the run can end.
		_ = s.shutdown()
		return nil
	}
	if perr != nil {
		return perr
	}
	if !sameCommits(got, ref) {
		s.correct = false
		return nil
	}
	s.good = got.Events
	s.lat = []time.Duration{s.active}
	if s.traced {
		s.collect(s.good)
		s.run.layers.add("timewarp.rollbacks", float64(got.Rollbacks))
		s.run.layers.add("timewarp.stragglers", float64(got.Stragglers))
	}
	return nil
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// timewarpSetup builds a runtime shaped like Parallel's: one idle
// process per LP plus the injector.
func timewarpSetup(cfg timewarp.Config) (*hope.Runtime, error) {
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard}))
	for i := 0; i <= cfg.LPs; i++ {
		if err := rt.Spawn(fmt.Sprintf("lp%d", i), func(*hope.Proc) error { return nil }); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	return rt, nil
}

// sameCommits reports whether the parallel run committed exactly the
// sequential event multiset on every LP.
func sameCommits(got, want timewarp.Result) bool {
	if got.Events != want.Events || len(got.Committed) != len(want.Committed) {
		return false
	}
	for i := range want.Committed {
		if !slices.Equal(got.Committed[i], want.Committed[i]) {
			return false
		}
	}
	return true
}
