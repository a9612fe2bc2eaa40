package tracker

import (
	"fmt"
	"sync/atomic"
	"testing"

	"hope/internal/ids"
)

// buildFanout builds a tracker with procs processes, each holding one
// open speculative interval over its own assumption, and returns one
// simulated receive queue per process: qlen messages, each tagged with
// the owning process's dependency set — the §7 high-fanout shape where
// every receiver rescans its queue on every wakeup.
func buildFanout(tb testing.TB, procs, qlen int) (*Tracker, [][]ids.AID) {
	tb.Helper()
	tr := New()
	var queues [][]ids.AID
	for i := 0; i < procs; i++ {
		p := tr.Register(noopHooks{})
		x := tr.NewAID()
		if _, err := tr.Guess(p, x, 0); err != nil {
			tb.Fatalf("guess: %v", err)
		}
		tags, err := tr.Tag(p)
		if err != nil {
			tb.Fatalf("tag: %v", err)
		}
		for j := 0; j < qlen; j++ {
			queues = append(queues, tags)
		}
	}
	return tr, queues
}

// BenchmarkQueueScanClassify measures the repeated queue-scan hot path:
// every iteration classifies every queued message once, as RecvSettled,
// hasWork, and DebugString do on each wakeup. "fresh" is the pre-cache
// path (a locked transitive walk per message); "cached" memoizes each
// message's verdict against the resolution epoch, so steady-state scans
// cost one atomic load per message.
func BenchmarkQueueScanClassify(b *testing.B) {
	for _, procs := range []int{1, 8, 64} {
		const qlen = 16
		b.Run(fmt.Sprintf("procs=%d/fresh", procs), func(b *testing.B) {
			tr, queues := buildFanout(b, procs, qlen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tags := range queues {
					tr.Settled(tags)
				}
			}
		})
		b.Run(fmt.Sprintf("procs=%d/cached", procs), func(b *testing.B) {
			tr, queues := buildFanout(b, procs, qlen)
			caches := make([]TagClass, len(queues))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, tags := range queues {
					tr.ClassifyCached(tags, &caches[j])
				}
			}
		})
		b.Run(fmt.Sprintf("procs=%d/batch", procs), func(b *testing.B) {
			tr, queues := buildFanout(b, procs, qlen)
			out := make([]TagClass, len(queues))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Classify(queues, out)
			}
		})
	}
}

// BenchmarkDeepSpecChain classifies a tag whose resolution threads a
// chain of speculative affirms of the given depth — the worst case for
// the transitive walk, and the case where the small inline seen-buffer
// spills to a map.
func BenchmarkDeepSpecChain(b *testing.B) {
	for _, depth := range []int{4, 32, 128} {
		build := func(tb testing.TB) (*Tracker, []ids.AID) {
			tb.Helper()
			tr := New()
			p := tr.Register(noopHooks{})
			xs := make([]ids.AID, depth+1)
			for i := range xs {
				xs[i] = tr.NewAID()
			}
			// guess x1, affirm x0 (spec: repl {x1}), guess x2, affirm x1, ...
			for i := 0; i < depth; i++ {
				if _, err := tr.Guess(p, xs[i+1], i); err != nil {
					tb.Fatalf("guess: %v", err)
				}
				if err := tr.Affirm(p, xs[i]); err != nil {
					tb.Fatalf("affirm: %v", err)
				}
			}
			return tr, []ids.AID{xs[0]}
		}
		b.Run(fmt.Sprintf("depth=%d/fresh", depth), func(b *testing.B) {
			tr, tags := build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Settled(tags)
			}
		})
		b.Run(fmt.Sprintf("depth=%d/cached", depth), func(b *testing.B) {
			tr, tags := build(b)
			var c TagClass
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.ClassifyCached(tags, &c)
			}
		})
	}
}

// BenchmarkContendedMixedReadWrite runs concurrent classification
// (readers) against a resolution stream (writer): the read/write-lock
// split lets readers scale while only genuine resolutions invalidate
// their cached verdicts.
func BenchmarkContendedMixedReadWrite(b *testing.B) {
	tr, queues := buildFanout(b, 8, 16)
	writer := tr.Register(noopHooks{})
	stop := make(chan struct{})
	defer close(stop)
	var resolutions atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A definite affirm of a fresh assumption: bumps the epoch
			// without disturbing the fanout intervals.
			x := tr.NewAID()
			if err := tr.Affirm(writer, x); err != nil {
				b.Errorf("affirm: %v", err)
				return
			}
			resolutions.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		caches := make([]TagClass, len(queues))
		for pb.Next() {
			for j, tags := range queues {
				tr.ClassifyCached(tags, &caches[j])
			}
		}
	})
}

// buildExchange builds the timewarp shape BenchmarkAffirmSettle settles:
// procs processes take turns guessing a fresh assumption and passing
// their tag set to the next process in a ring, which delivers it, so
// IDO and DOM sets cross processes (and shards). It returns each
// process's own assumptions in guess order.
func buildExchange(tb testing.TB, tr *Tracker, procs, steps int) ([]ids.Proc, [][]ids.AID) {
	tb.Helper()
	ps := make([]ids.Proc, procs)
	for i := range ps {
		ps[i] = tr.Register(noopHooks{})
	}
	chains := make([][]ids.AID, procs)
	log := 0
	for s := 0; s < steps; s++ {
		for i, p := range ps {
			x := tr.NewAID()
			log++
			if _, err := tr.Guess(p, x, log); err != nil {
				tb.Fatalf("guess: %v", err)
			}
			chains[i] = append(chains[i], x)
			tags, err := tr.Tag(p)
			if err != nil {
				tb.Fatalf("tag: %v", err)
			}
			log++
			if _, err := tr.Deliver(ps[(i+1)%procs], tags, log); err != nil {
				tb.Fatalf("deliver: %v", err)
			}
		}
	}
	return ps, chains
}

// BenchmarkAffirmSettle measures the settle rung of the timewarp
// workload: after a tagged exchange, every process self-affirms its
// chain in guess order, as timewarp's commitAll does. Each affirm is
// speculative until the affirming process's chain collapses, so it
// copies the affirmer's IDO into every dependent in other processes.
// One op is the whole affirm phase of one fresh exchange; the exchange
// itself is built with the timer stopped. The ring crosses shards at
// WithShards(2), and every settle takes the all-shard lock at
// WithShards(1).
func BenchmarkAffirmSettle(b *testing.B) {
	const procs, steps = 4, 16
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := New(WithShards(shards))
				ps, chains := buildExchange(b, tr, procs, steps)
				b.StartTimer()
				for j, p := range ps {
					for _, x := range chains[j] {
						if err := tr.Affirm(p, x); err != nil {
							b.Fatalf("affirm: %v", err)
						}
					}
				}
				b.StopTimer()
				for _, p := range ps {
					if n := tr.LiveIntervals(p); n != 0 {
						b.Fatalf("%v has %d live intervals after affirming every chain", p, n)
					}
				}
				b.StartTimer()
			}
		})
	}
}
