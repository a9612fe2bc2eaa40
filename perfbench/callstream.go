package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"hope"
	"hope/internal/rpc"
)

// The callstream workload is the paper's Figure-2 print-job stream: a
// worker prints each job's total and then a one-line summary through a
// remote stateful printer, predicting each reply. Every job fits on its
// page, so every prediction is exact (the §7 best case) and any deny is
// spurious. Short sessions averaged over a run are steady where one long
// stream is not.
//
// The printer is the optimistic rpc.ServeStateful and the client has
// one verifier. With a larger pool (the default is 8) the verifiers
// deliver requests to the printer out of call order, so some committed
// replies differ from the sequential printer arithmetic and some
// sessions never settle. One verifier is the pool size that keeps call
// order at this commit; once rpc keeps call order across a pool, the
// client's default pool should be measured instead.
const (
	csJobs      = 10 // print jobs per session, two calls each
	csPageSize  = 50
	csLatency   = time.Millisecond // modelled one-way latency of every link
	csVerifiers = 1
)

// printReq is one print call. Call is the operation index, carried for
// the benchmark's delivery timing only; the printer's arithmetic ignores
// it.
type printReq struct {
	Total bool
	Lines int
	Call  int
}

// printerReference is the sequential printer arithmetic: the reply each
// call of the session must commit.
func printerReference(lines []int) []int {
	ref := make([]int, 0, 2*len(lines))
	line := 0
	for _, n := range lines {
		line = n
		for line >= csPageSize {
			line -= csPageSize
		}
		ref = append(ref, line)
		line++
		ref = append(ref, line)
	}
	return ref
}

func callstreamSession(s *session) error {
	rng := rand.New(rand.NewSource(s.seed))
	lines := make([]int, csJobs)
	for i := range lines {
		lines[i] = 1 + rng.Intn(csPageSize-1) // stays on the page
	}
	ref := printerReference(lines)
	n := len(ref)
	b := newBatch(n)
	l := s.run.layers
	traced, syncCalls := s.traced, s.syncBaseline

	// served records when the printer first handles each call. In the
	// sync-baseline sessions the worker is never speculative, so the
	// printer handles a request as soon as it arrives, one modelled link
	// after the worker issued it: the difference is the lateness of that
	// delivery. A streamed request instead reaches the printer only when
	// the verifier, which handles one call at a time, gets to it.
	var servedMu sync.Mutex
	served := make([]time.Time, n)

	s.beginSetup()
	rt := hope.New(hope.WithPolicy(hope.Policy{
		Output:   io.Discard,
		Latency:  func(from, to string) time.Duration { return csLatency },
		Observer: s.observer(),
	}))
	s.rts = append(s.rts, rt)
	if err := rpc.ServeStateful(rt, "printer", func() rpc.Handler {
		line := 0
		return func(req any) any {
			r := req.(printReq)
			if syncCalls {
				servedMu.Lock()
				if served[r.Call].IsZero() {
					served[r.Call] = time.Now()
				}
				servedMu.Unlock()
			}
			if r.Total {
				line = r.Lines
				for line >= csPageSize {
					line -= csPageSize
				}
			} else {
				line++
			}
			return line
		}
	}); err != nil {
		return err
	}
	client, err := rpc.NewClient(rt, "worker", rpc.WithVerifiers(csVerifiers))
	if err != nil {
		return err
	}

	s.beginDrive()
	if err := rt.Spawn("worker", func(p *hope.Proc) error {
		sess := client.Session(p)
		local := 0 // the worker's mirror of the printer's line position
		for i := 0; i < n; i++ {
			req := printReq{Total: i%2 == 0, Call: i}
			predicted := local + 1
			if req.Total {
				req.Lines = lines[i/2]
				predicted = req.Lines
			}
			b.issue(i)
			t0 := clock()
			var got any
			accurate := true
			var err error
			if syncCalls {
				got, err = sess.Call("printer", req)
			} else {
				got, accurate, err = sess.StreamCall("printer", req, predicted)
			}
			d := clock().Sub(t0)
			if err != nil {
				return err
			}
			v, _ := got.(int)
			local = v
			p.Effect(func() {
				b.commit(i, v == ref[i])
				if !traced {
					return
				}
				if syncCalls {
					l.span("rpc.sync_call", d)
					return
				}
				l.span("rpc.stream_call", d)
				l.add("rpc.stream_calls", 1)
				if !accurate {
					l.add("rpc.pessimistic_returns", 1)
				}
			}, nil)
		}
		return nil
	}); err != nil {
		return err
	}
	s.await(b.done)
	s.endDrive()
	s.settle(b, n)
	if err := s.shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	switch {
	case syncCalls:
		servedMu.Lock()
		for i, t := range served {
			if !t.IsZero() {
				l.span("engine.delivery_lateness", t.Sub(b.issuedAt(i))-csLatency)
			}
		}
		servedMu.Unlock()
	case traced:
		s.collect(s.good)
	}
	return nil
}
