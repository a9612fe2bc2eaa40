package main

import (
	"sync"
	"time"
)

// layers accumulates what traced sessions observe at each layer
// boundary: span durations (the benchmark's own timings around its
// calls into a layer), counters and high-water marks. Spans are kept in
// memory and reduced when the run ends.
type layers struct {
	mu     sync.Mutex
	spans  map[string][]float64 // microseconds
	counts map[string]float64
	maxes  map[string]float64
}

func newLayers() *layers {
	return &layers{spans: map[string][]float64{}, counts: map[string]float64{}, maxes: map[string]float64{}}
}

func (l *layers) span(name string, d time.Duration) {
	l.mu.Lock()
	l.spans[name] = append(l.spans[name], float64(d)/float64(time.Microsecond))
	l.mu.Unlock()
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.counts[name] += v
	l.mu.Unlock()
}

func (l *layers) max(name string, v float64) {
	l.mu.Lock()
	if v > l.maxes[name] {
		l.maxes[name] = v
	}
	l.mu.Unlock()
}

type layerMetric struct {
	name  string
	unit  string
	value float64
}

// metrics reduces the accumulators to the per-layer metrics. Every
// metric is reported for every workload; one whose layer the workload
// does not exercise reads 0. A per-op metric divides by the operations
// committed in traced sessions.
func (l *layers) metrics(r *run) []layerMetric {
	l.mu.Lock()
	defer l.mu.Unlock()
	p50 := func(name string) float64 { return median(l.spans[name]) }
	ratio := func(num, den string) float64 {
		if l.counts[den] == 0 {
			return 0
		}
		return l.counts[num] / l.counts[den]
	}
	perOp := func(name string) float64 { return ratio(name, "ops") }

	// Trace overhead: untraced against traced committed throughput,
	// from the interleaved sessions of this run.
	overhead := 0.0
	if r.active[0] > 0 && r.active[1] > 0 && r.committed[1] > 0 {
		untraced := float64(r.committed[0]) / r.active[0].Seconds()
		traced := float64(r.committed[1]) / r.active[1].Seconds()
		overhead = (untraced/traced - 1) * 100
	}
	return []layerMetric{
		{"rpc.stream_call_us", "us", p50("rpc.stream_call")},
		{"rpc.pessimistic_return_ratio", "ratio", ratio("rpc.pessimistic_returns", "rpc.stream_calls")},
		{"rpc.sync_call_us", "us", p50("rpc.sync_call")},

		{"engine.attempts_per_op", "count", perOp("engine.attempts")},
		{"engine.replayed_entries_per_op", "count", perOp("engine.replayed")},
		{"engine.guess_us", "us", p50("engine.guess")},
		{"engine.send_us", "us", p50("engine.send")},
		{"engine.affirm_us", "us", p50("engine.affirm")},
		{"engine.recv_wait_us", "us", p50("engine.recv_wait")},
		{"engine.affirm_to_commit_us", "us", p50("engine.affirm_to_commit")},
		{"engine.sched_heap_max", "count", l.maxes["engine.sched_heap"]},
		{"engine.delivery_lateness_us", "us", p50("engine.delivery_lateness")},

		{"tracker.denies_per_aid", "ratio", ratio("tracker.denies", "tracker.guesses")},
		{"tracker.rolled_back_per_finalized", "ratio", ratio("tracker.rolled_back", "tracker.finalized")},
		{"tracker.spec_affirm_ratio", "ratio", ratio("tracker.spec_affirms", "tracker.affirms")},
		{"tracker.classify_miss_ratio", "ratio", missRatio(l.counts)},
		{"tracker.shard_contention_per_op", "count", perOp("tracker.shard_contention")},
		{"tracker.live_intervals_max", "count", l.maxes["tracker.live_intervals"]},

		{"timewarp.rollbacks_per_event", "ratio", perOp("timewarp.rollbacks")},
		{"timewarp.stragglers_per_event", "ratio", perOp("timewarp.stragglers")},

		{"wire.frames_per_op", "count", perOp("wire.frames")},
		{"wire.bytes_per_op", "bytes", perOp("wire.bytes")},
		{"wire.encode_ns", "ns", p50("wire.encode") * 1000},
		{"wire.decode_ns", "ns", p50("wire.decode") * 1000},
		{"wire.verdict_fanout_per_op", "count", perOp("wire.verdict_fanout")},

		{"obs.trace_overhead_pct", "%", overhead},
		{"obs.events_dropped", "count", l.counts["obs.events_dropped"]},
	}
}

func missRatio(c map[string]float64) float64 {
	total := c["tracker.classify_hits"] + c["tracker.classify_misses"]
	if total == 0 {
		return 0
	}
	return c["tracker.classify_misses"] / total
}
