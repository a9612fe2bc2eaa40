package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hope"
	"hope/internal/engine"
	"hope/internal/ids"
	"hope/internal/wire"
)

// The wire_pingpong workload joins two runtimes in this process with
// wire.Node over loopback TCP. Each round, node 0 guesses a fresh AID,
// sends a token tagged with it, waits for node 1's echo, affirms (which
// broadcasts the verdict) and commits an effect. It is the only workload
// through the wire codec, the links, verdict broadcast and foreign-AID
// materialisation; it has no rollback and no modelled latency.
// A session's rounds are many so that few connections are opened and
// closed per run: sockets left in TIME_WAIT by earlier sessions slow
// later ones.
const ppRounds = 1000

// token is the ping-pong payload.
type token struct{ Round int }

func init() { wire.RegisterPayload(token{}) }

func pingpongSession(s *session) error {
	b := newBatch(ppRounds)
	l := s.run.layers
	traced := s.traced
	// The reference: node 0 commits rounds 0, 1, 2, … in order, each
	// with its own token echoed back.
	var orderMu sync.Mutex
	next := 0

	s.beginSetup()
	placement := map[string]uint32{"ping": 0, "pong": 1}
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		lns[i] = ln
	}
	var nodes [2]*wire.Node
	s.closers = append(s.closers, func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	for i := range nodes {
		o := s.observer()
		rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard, Observer: o}),
			engine.WithAIDBase(uint64(i)<<48))
		s.rts = append(s.rts, rt)
		n, err := wire.NewNode(rt, wire.Config{
			ID:       uint32(i),
			Listener: lns[i],
			Peers:    map[uint32]string{uint32(1 - i): lns[1-i].Addr().String()},
			Procs:    placement,
			Obs:      o,
		})
		if err != nil {
			return err
		}
		nodes[i] = n
	}
	if err := s.rts[1].Spawn("pong", func(p *hope.Proc) error {
		for {
			m, err := p.Recv()
			if errors.Is(err, hope.ErrShutdown) {
				return nil
			}
			if err != nil {
				return err
			}
			if err := p.Send("ping", m.Payload); err != nil {
				return err
			}
		}
	}); err != nil {
		return err
	}
	for i, n := range nodes {
		if err := n.Start(); err != nil {
			return fmt.Errorf("node %d start: %w", i, err)
		}
	}

	s.beginDrive()
	if err := s.rts[0].Spawn("ping", func(p *hope.Proc) error {
		for r := 0; r < ppRounds; r++ {
			b.issue(r)
			t0 := clock()
			x := p.NewAID()
			//hopevet:ignore specleak -- only an error leaves x open, and it ends the session
			if !p.Guess(x) {
				return fmt.Errorf("round %d: guess of a fresh AID denied", r)
			}
			t1 := clock()
			if err := p.Send("pong", token{Round: r}); err != nil {
				return err
			}
			t2 := clock()
			m, err := p.Recv()
			if err != nil {
				return err
			}
			t3 := clock()
			echo, _ := m.Payload.(token)
			if err := p.Affirm(x); err != nil {
				return err
			}
			t4 := clock()
			p.Effect(func() {
				orderMu.Lock()
				ok := echo.Round == r && r == next
				next++
				orderMu.Unlock()
				b.commit(r, ok)
				if traced {
					l.span("engine.guess", t1.Sub(t0))
					l.span("engine.send", t2.Sub(t1))
					l.span("engine.recv_wait", t3.Sub(t2))
					l.span("engine.affirm", t4.Sub(t3))
					l.span("engine.affirm_to_commit", time.Since(t3))
				}
			}, nil)
		}
		return nil
	}); err != nil {
		return err
	}
	s.await(b.done)
	s.endDrive()
	s.settle(b, ppRounds)
	if err := s.shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if traced {
		s.collect(s.good)
		codecSpans(l)
	}
	return nil
}

// codecSpans times wire.AppendFrame and wire.DecodeBody on the frame a
// round sends: a token payload under a one-AID tag set.
func codecSpans(l *layers) {
	payload, err := wire.EncodePayload(token{Round: 1})
	if err != nil {
		return
	}
	msg := wire.Msg{From: "ping", To: "pong", Seq: 1, Tags: []ids.AID{1<<48 | 1}, Payload: payload}
	const reps = 2000
	buf := make([]byte, 0, 256)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			buf, _ = wire.AppendFrame(buf[:0], msg)
		}
		l.span("wire.encode", time.Since(t0)/reps)
		body := buf[8:]
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			_, _ = wire.DecodeBody(wire.FrameMsg, body)
		}
		l.span("wire.decode", time.Since(t0)/reps)
	}
}
