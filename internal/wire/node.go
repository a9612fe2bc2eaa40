package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hope/internal/engine"
	"hope/internal/fault"
	"hope/internal/ids"
	"hope/internal/obs"
)

// Node runs one engine.Runtime as a member of a wire cluster: a full
// mesh of TCP links carrying tagged messages and resolution verdicts
// between OS processes.
//
// # Topology and ordering
//
// Every node dials every peer once; each directed pair gets its own
// connection, written by one writer goroutine — so each link is FIFO,
// which is the delivery order the engine's per-sender duplicate filter
// and the paper's channel model assume. Inbound connections are
// accepted and identified by their opening Hello frame.
//
// # Distributed resolution
//
// Terminal Affirm/Deny verdicts reach every runtime: the tracker's
// verdict sink fires on each locally-committed resolution and the node
// broadcasts it; receivers apply it with Runtime.ApplyVerdict, rolling
// back remote dependents through the ordinary machinery. Only
// locally-originated verdicts are broadcast — remote ones are applied,
// never forwarded — and a seen-set (marked before apply) makes the
// exchange loop-free: cascade denials triggered by a remote verdict
// count as locally originated and fan out in turn.
//
// # Fault injection
//
// A wire fault plan perturbs Msg frames only: Drop is decided at route
// time (the sender sees engine.ErrDelivery, exactly like a local
// injected drop), Dup enqueues the frame twice (the receiver's
// per-sender sequence filter suppresses the copy), Delay makes the
// link's writer sleep before the write — stretching the link without
// reordering it. Control frames (Hello/Verdict/Done) are exempt: they
// have no retry path, and the oracle's guarantee is about message
// delivery, not about the resolution protocol losing its own state.
type Node struct {
	cfg   Config
	rt    *engine.Runtime
	ln    net.Listener
	peers map[uint32]*peer
	plist []*peer // peers sorted by id, for deterministic fan-out order

	started   chan struct{} // closed when the mesh is up
	stopped   chan struct{} // closed by Close
	allDone   chan struct{} // closed when Done arrived from every peer
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu         sync.Mutex
	seen       map[ids.AID]bool // verdicts applied or broadcast already
	done       map[uint32]bool
	doneClosed bool
	conns      []net.Conn // accepted inbound connections, for Close
	clock      map[uint32]uint64
	errs       []error
}

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's index; it namespaces AIDs (engine.WithAIDBase)
	// and identifies the node in Hello/Verdict/Done frames.
	ID uint32
	// Name labels the node in Hello frames and peer metrics (default
	// "node<ID>").
	Name string
	// Listen is the TCP address to listen on; ignored when Listener is
	// set.
	Listen string
	// Listener is an optional pre-bound listener. Multi-process
	// harnesses bind in the parent and pass the socket by file
	// descriptor, so children never race for ports.
	Listener net.Listener
	// Peers maps every other node's ID to its dial address.
	Peers map[uint32]string
	// Procs is the cluster-wide placement: process name → owning node.
	// The router consults it for every Send that names no local process.
	Procs map[string]uint32
	// Faults optionally injects drop/dup/delay on outbound Msg frames.
	// The plan must be distinct from any engine-level plan — per-site
	// counters are part of the schedule — but may share its seed; wire
	// sites and engine sites are disjoint decision streams.
	Faults *fault.Plan
	// Obs optionally receives per-peer transport metrics.
	Obs *obs.Observer
	// DialTimeout bounds each peer dial, retrying inside the budget
	// (peers start in arbitrary order). Default 10s.
	DialTimeout time.Duration
}

type outFrame struct {
	buf   []byte
	delay time.Duration
	// sent, when non-nil, receives one token once the writer is past
	// this frame — written to the socket, or dropped because the peer
	// is lost. Barrier uses it to flush its Done frames before the
	// caller may Close the node; without the ack a Done could still be
	// queued behind a delay-stretched frame when Close kills the
	// writer, and the peer's barrier would wait for it forever.
	sent chan<- struct{}
}

type peer struct {
	id   uint32
	name string
	addr string
	conn net.Conn
	out  chan outFrame
	slot int // obs metrics slot for the outbound link
	lost atomic.Bool
}

// NewNode wires a runtime into the cluster: it installs the remote
// router and verdict sink on rt immediately, so spawn local processes
// after NewNode and call Start before expecting traffic. Sends that
// race Start park until the mesh is up.
func NewNode(rt *engine.Runtime, cfg Config) (*Node, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("node%d", cfg.ID)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Listener == nil && cfg.Listen == "" && len(cfg.Peers) > 0 {
		return nil, errors.New("wire: config needs Listen or Listener")
	}
	if _, ok := cfg.Peers[cfg.ID]; ok {
		return nil, fmt.Errorf("wire: node %d lists itself as a peer", cfg.ID)
	}
	registerOnce.Do(registerBuiltins)
	n := &Node{
		cfg:     cfg,
		rt:      rt,
		peers:   make(map[uint32]*peer, len(cfg.Peers)),
		started: make(chan struct{}),
		stopped: make(chan struct{}),
		allDone: make(chan struct{}),
		seen:    make(map[ids.AID]bool),
		done:    make(map[uint32]bool),
		clock:   make(map[uint32]uint64),
	}
	for id, addr := range cfg.Peers {
		p := &peer{
			id:   id,
			name: fmt.Sprintf("node%d", id),
			addr: addr,
			out:  make(chan outFrame, 1024),
		}
		p.slot = cfg.Obs.RegisterWirePeer("→" + p.name)
		n.peers[id] = p
		n.plist = append(n.plist, p)
	}
	sort.Slice(n.plist, func(i, j int) bool { return n.plist[i].id < n.plist[j].id })
	rt.SetRemoteRouter(n.route)
	rt.SetVerdictSink(n.onVerdict)
	return n, nil
}

// Start brings the mesh up: listen, dial every peer (with retry — the
// cluster starts in arbitrary order), send Hello, and release any
// parked sends.
func (n *Node) Start() error {
	ln := n.cfg.Listener
	if ln == nil && n.cfg.Listen != "" {
		var err error
		ln, err = net.Listen("tcp", n.cfg.Listen)
		if err != nil {
			return fmt.Errorf("wire: listen %s: %w", n.cfg.Listen, err)
		}
	}
	n.ln = ln
	if ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	var derr error
	var dmu sync.Mutex
	var dwg sync.WaitGroup
	for _, p := range n.plist {
		dwg.Add(1)
		go func(p *peer) {
			defer dwg.Done()
			if err := n.connect(p); err != nil {
				dmu.Lock()
				derr = errors.Join(derr, err)
				dmu.Unlock()
			}
		}(p)
	}
	dwg.Wait()
	if derr != nil {
		return derr
	}
	close(n.started)
	return nil
}

// Addr returns the node's bound listen address (nil before Start or
// without a listener).
func (n *Node) Addr() net.Addr {
	if n.ln == nil {
		return nil
	}
	return n.ln.Addr()
}

// connect dials one peer, sends Hello, and starts the link's writer.
func (n *Node) connect(p *peer) error {
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		conn, err := net.DialTimeout("tcp", p.addr, time.Second)
		if err == nil {
			p.conn = conn
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: dial %s (%s): %w", p.name, p.addr, err)
		}
		select {
		case <-n.stopped:
			return fmt.Errorf("wire: node closed while dialing %s", p.name)
		case <-time.After(20 * time.Millisecond):
		}
	}
	nw, err := WriteFrame(p.conn, Hello{Node: n.cfg.ID, Name: n.cfg.Name})
	if err != nil {
		return fmt.Errorf("wire: hello to %s: %w", p.name, err)
	}
	n.cfg.Obs.WireFrameOut(p.slot, nw)
	n.wg.Add(1)
	go n.writeLoop(p)
	return nil
}

// route is the engine's RemoteRouter: consult placement, apply the wire
// fault plan, frame, and hand to the link writer. Parks until the mesh
// is up so spawn-before-Start sends never race it.
func (n *Node) route(m engine.WireMsg) error {
	select {
	case <-n.started:
	case <-n.stopped:
		return engine.ErrDelivery
	}
	owner, ok := n.cfg.Procs[m.To]
	if !ok {
		return fmt.Errorf("%w: %q (no placement)", engine.ErrUnknownDest, m.To)
	}
	if owner == n.cfg.ID {
		return fmt.Errorf("%w: %q placed here but not spawned", engine.ErrUnknownDest, m.To)
	}
	p := n.peers[owner]
	if p == nil {
		return fmt.Errorf("%w: %q placed on unknown node %d", engine.ErrUnknownDest, m.To, owner)
	}
	if p.lost.Load() {
		return engine.ErrDelivery
	}
	if n.cfg.Faults.DropNow(m.From, m.To) {
		n.cfg.Obs.Emit(obs.KFaultDrop, ids.NoProc, ids.NoAID, ids.NoInterval, 0)
		return engine.ErrDelivery
	}
	payload, err := EncodePayload(m.Payload)
	if err != nil {
		return fmt.Errorf("wire: encode %s→%s payload: %w", m.From, m.To, err)
	}
	buf, err := AppendFrame(nil, Msg{
		From: m.From, To: m.To, Seq: m.Seq,
		Tags: m.Tags, VClock: n.tick(), Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("wire: frame %s→%s: %w", m.From, m.To, err)
	}
	delay := n.cfg.Faults.DelayNow(m.From, m.To)
	if delay > 0 {
		n.cfg.Obs.Emit(obs.KFaultDelay, ids.NoProc, ids.NoAID, ids.NoInterval, int64(delay))
	}
	if err := n.enqueue(p, outFrame{buf: buf, delay: delay}); err != nil {
		return err
	}
	if n.cfg.Faults.DupNow(m.From, m.To) {
		n.cfg.Obs.Emit(obs.KFaultDup, ids.NoProc, ids.NoAID, ids.NoInterval, 0)
		_ = n.enqueue(p, outFrame{buf: buf}) // best-effort duplicate
	}
	return nil
}

// enqueue hands a frame to the link's writer in FIFO order.
func (n *Node) enqueue(p *peer, f outFrame) error {
	select {
	case p.out <- f:
		return nil
	case <-n.stopped:
		return engine.ErrDelivery
	}
}

// onVerdict is the tracker's verdict sink: broadcast each
// locally-originated terminal resolution to every peer. Remote verdicts
// were marked seen before they were applied, so the sink firing during
// that apply is suppressed here and nothing is forwarded.
func (n *Node) onVerdict(x ids.AID, affirmed bool) {
	n.mu.Lock()
	already := n.seen[x]
	n.seen[x] = true
	n.mu.Unlock()
	if already || len(n.plist) == 0 {
		return
	}
	buf, err := AppendFrame(nil, Verdict{AID: x, Affirmed: affirmed, Origin: n.cfg.ID})
	if err != nil {
		n.noteErr(err)
		return
	}
	fanout := 0
	for _, p := range n.plist {
		if n.enqueue(p, outFrame{buf: buf}) == nil {
			fanout++
		}
	}
	n.cfg.Obs.WireVerdictBroadcast(fanout)
}

// tick advances this node's vector-clock component and snapshots the
// clock, sorted by node for a canonical wire form.
func (n *Node) tick() []ClockEntry {
	n.mu.Lock()
	n.clock[n.cfg.ID]++
	out := make([]ClockEntry, 0, len(n.clock))
	for id, s := range n.clock {
		out = append(out, ClockEntry{Node: id, Seq: s})
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (n *Node) mergeClock(vc []ClockEntry) {
	n.mu.Lock()
	for _, c := range vc {
		if c.Seq > n.clock[c.Node] {
			n.clock[c.Node] = c.Seq
		}
	}
	n.mu.Unlock()
}

// writeLoop is one link's single writer: FIFO, with injected delays
// stretching the link rather than reordering it. On a write error the
// peer is marked lost (senders see ErrDelivery) and the queue keeps
// draining so nothing blocks.
func (n *Node) writeLoop(p *peer) {
	defer n.wg.Done()
	for {
		select {
		case f := <-p.out:
			if f.delay > 0 {
				select {
				case <-time.After(f.delay):
				case <-n.stopped:
					return
				}
			}
			nw, err := p.conn.Write(f.buf)
			n.cfg.Obs.WireFrameOut(p.slot, nw)
			if f.sent != nil {
				f.sent <- struct{}{}
			}
			if err != nil {
				p.lost.Store(true)
				if !n.closing() {
					n.noteErr(fmt.Errorf("wire: write to %s: %w", p.name, err))
				}
				for { // drain forever; frames to a lost peer are dropped
					select {
					case d := <-p.out:
						if d.sent != nil {
							d.sent <- struct{}{}
						}
					case <-n.stopped:
						return
					}
				}
			}
		case <-n.stopped:
			return
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A connection accepted just before the listener closed must not
		// outlive Close: either Close's snapshot of conns sees it, or
		// (Close having marked the node stopped before snapshotting) it is
		// closed here. Otherwise its reader would block Close forever.
		n.mu.Lock()
		if n.closing() {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns = append(n.conns, conn)
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop drains one inbound connection: Hello identifies the peer,
// then Msg frames are injected into the runtime, Verdict frames applied
// (once), Done frames counted toward the termination barrier.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	f, sz, err := ReadFrame(conn)
	if err != nil {
		if !n.closing() {
			n.noteErr(fmt.Errorf("wire: inbound %s: %w", conn.RemoteAddr(), err))
		}
		return
	}
	hello, ok := f.(Hello)
	if !ok {
		n.noteErr(fmt.Errorf("wire: inbound %s opened with %T, want Hello", conn.RemoteAddr(), f))
		return
	}
	slot := n.cfg.Obs.RegisterWirePeer("←" + hello.Name)
	n.cfg.Obs.WireFrameIn(slot, sz)
	lastSeq := make(map[string]uint64) // per-sender redelivery accounting
	sawDone := false
	for {
		f, sz, err := ReadFrame(conn)
		if err != nil {
			// EOF at a frame boundary is the peer leaving; anything after
			// its Done, or during our own shutdown, is normal teardown.
			if !errors.Is(err, io.EOF) && !sawDone && !n.closing() {
				n.noteErr(fmt.Errorf("wire: read from %s: %w", hello.Name, err))
			}
			return
		}
		n.cfg.Obs.WireFrameIn(slot, sz)
		switch m := f.(type) {
		case Msg:
			n.mergeClock(m.VClock)
			if last, seen := lastSeq[m.From]; seen && m.Seq <= last {
				n.cfg.Obs.WireRedelivery(slot)
			} else {
				lastSeq[m.From] = m.Seq
			}
			payload, err := DecodePayload(m.Payload)
			if err != nil {
				n.noteErr(fmt.Errorf("wire: payload %s→%s: %w", m.From, m.To, err))
				continue
			}
			// Duplicates are injected too: the engine's per-sender filter
			// suppresses them, which is the machinery under test.
			if err := n.rt.InjectRemote(engine.WireMsg{
				From: m.From, To: m.To, Seq: m.Seq, Tags: m.Tags, Payload: payload,
			}); err != nil {
				n.noteErr(fmt.Errorf("wire: inject %s→%s: %w", m.From, m.To, err))
			}
		case Verdict:
			if !n.markSeen(m.AID) {
				continue
			}
			if err := n.rt.ApplyVerdict(m.AID, m.Affirmed); err != nil {
				n.noteErr(fmt.Errorf("wire: verdict %v from node %d: %w", m.AID, m.Origin, err))
			}
		case Done:
			sawDone = true
			n.markDone(m.Node)
		default:
			n.noteErr(fmt.Errorf("wire: unexpected %T from %s", f, hello.Name))
		}
	}
}

// markSeen records a verdict AID before it is applied or broadcast;
// false means it was already handled.
func (n *Node) markSeen(x ids.AID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.seen[x] {
		return false
	}
	n.seen[x] = true
	return true
}

func (n *Node) markDone(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.done[id] {
		return
	}
	n.done[id] = true
	if len(n.done) >= len(n.peers) && !n.doneClosed {
		n.doneClosed = true
		close(n.allDone)
	}
}

// Barrier announces that this node's local work is finished and waits
// for the same announcement from every peer. Call after the local
// runtime quiesced; the Done frame trails every pending verdict on each
// link (FIFO), so when the barrier releases, all verdicts this node
// originated have been transmitted. The barrier waits for its own Done
// frames to reach the sockets too (outFrame.sent), so a node whose
// peers answer quickly cannot Close while its Done still sits queued
// behind a delay-stretched frame — that lost Done would strand the
// slower peer's barrier.
func (n *Node) Barrier(timeout time.Duration) error {
	if len(n.plist) == 0 {
		return nil
	}
	buf, err := AppendFrame(nil, Done{Node: n.cfg.ID})
	if err != nil {
		return err
	}
	acks := make(chan struct{}, len(n.plist))
	flushes := 0
	for _, p := range n.plist {
		if n.enqueue(p, outFrame{buf: buf, sent: acks}) == nil {
			flushes++
		}
	}
	deadline := time.After(timeout)
	fail := func() error {
		n.mu.Lock()
		got := len(n.done)
		n.mu.Unlock()
		return fmt.Errorf("wire: barrier timeout after %v (done from %d/%d peers)", timeout, got, len(n.plist))
	}
	for i := 0; i < flushes; i++ {
		select {
		case <-acks:
		case <-n.stopped:
			return errors.New("wire: node closed during barrier")
		case <-deadline:
			return fail()
		}
	}
	select {
	case <-n.allDone:
		return nil
	case <-n.stopped:
		return errors.New("wire: node closed during barrier")
	case <-deadline:
		return fail()
	}
}

func (n *Node) closing() bool {
	select {
	case <-n.stopped:
		return true
	default:
		return false
	}
}

// noteErr records an asynchronous transport error (bounded).
func (n *Node) noteErr(err error) {
	n.mu.Lock()
	if len(n.errs) < 32 {
		n.errs = append(n.errs, err)
	}
	n.mu.Unlock()
}

// Err joins the transport errors observed so far.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return errors.Join(n.errs...)
}

// Close tears the mesh down and waits for every link goroutine. It
// returns the joined transport errors (nil on a clean run).
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.stopped)
		if n.ln != nil {
			n.ln.Close()
		}
		for _, p := range n.plist {
			if p.conn != nil {
				p.conn.Close()
			}
		}
		n.mu.Lock()
		conns := append([]net.Conn(nil), n.conns...)
		n.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		n.wg.Wait()
	})
	return n.Err()
}
