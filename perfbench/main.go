// Command perfbench is the repository's benchmark. It drives the HOPE
// runtime through its public functions, one workload per run, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last line of its output:
//
//	bash perfbench/run.sh --workload callstream --seed 1 --seconds 10 --trace 0
//
// Every workload is a closed loop with one client in one process, at the
// default GOMAXPROCS. A run repeats short sessions until its time is
// spent: each session builds a fresh system (set-up), drives a fixed
// batch of operations through it (the timed phase), checks every
// committed output against a reference computed outside the runtime,
// and tears the system down. Metrics are totals or medians over the
// run's sessions.
//
// The workloads (see BENCHMARK.json for why each was chosen):
//
//   - callstream: the paper's Figure-2 print-job stream over
//     rpc.Session.StreamCall with exact predictions and a 1 ms modelled
//     one-way latency.
//   - timewarp: PHOLD through timewarp.Parallel, checked against
//     timewarp.Sequential.
//   - wire_pingpong: speculative round trips between two runtimes
//     joined by wire.Node over loopback TCP.
//
// A run still going at its deadline is stopped: its uncommitted
// operations count as failed and a flight record (seed, host,
// Runtime.DebugString and Observer snapshot of each runtime) is written
// next to the run's result under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"hope"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A workload runs one session: it builds a fresh system, drives a fixed
// batch of operations through it and tears it down, reporting through s.
type workload struct {
	name    string
	session func(s *session) error
}

var workloads = []workload{
	{"callstream", callstreamSession},
	{"timewarp", timewarpSession},
	{"wire_pingpong", pingpongSession},
}

func main() {
	name := flag.String("workload", "", "workload to run: callstream, timewarp or wire_pingpong")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the result and flight records")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <callstream|timewarp|wire_pingpong> --seed n --seconds n --trace 0|1\n")
		os.Exit(2)
	}
	r := newRun(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.report(os.Stdout, res)
	if err := r.save(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run is one invocation: a workload, a seed, a time budget and a mode.
type run struct {
	w        workload
	seed     int64
	budget   time.Duration
	traced   bool
	out      string
	host     hostRecord
	grace    time.Duration // how far past the budget the run may go
	deadline time.Time

	setups    []float64 // seconds
	blocks    [nblocks]block
	active    [2]time.Duration
	committed [2]int64 // indexed by traced (0 untraced, 1 traced)
	syncGood  int64    // committed calls of callstream's sync-baseline sessions
	attempted int64
	sessions  int
	correct   bool
	stopped   bool
	peakHeap  uint64
	// latencyP99 is the median of the blocks' p99 commit latency,
	// reported in the summary only.
	latencyP99 float64

	layers *layers // per-layer accumulators of traced sessions
}

// nblocks is how many equal time blocks a run's sessions are grouped
// into by start time. An end-to-end metric is the median of its
// per-block values, so a burst of load from outside the benchmark that
// spoils one block does not move the run's figure.
const nblocks = 9

// block accumulates the untraced sessions that started in one time
// block of the run.
type block struct {
	active    time.Duration
	committed int64
	cpu       time.Duration
	lat       latHist
}

// deadlineGrace is how far past its budget a run may go before it is
// stopped; sessions last well under a second when the system is live.
const deadlineGrace = 20 * time.Second

func newRun(w workload, seed int64, budget time.Duration, traced bool, out string) *run {
	return &run{
		w: w, seed: seed, budget: budget, traced: traced, out: out,
		host:    newHostRecord(w.name, seed, traced),
		grace:   deadlineGrace,
		correct: true,
		layers:  newLayers(),
	}
}

// execute runs sessions until the budget is spent, then computes the
// run's result. In the traced pass sessions alternate between traced and
// untraced, so the trace overhead is measured under identical load.
func (r *run) execute() (result, error) {
	start := time.Now()
	r.deadline = start.Add(r.budget + r.grace)
	hs := startSampler(heapEvery, int((r.budget+r.grace)/heapEvery)+1, heapBytes())
	for i := 0; time.Since(start) < r.budget && !r.stopped; i++ {
		s := &session{run: r, index: i, seed: r.seed*1_000_003 + int64(i), traced: r.traced && i%2 == 0}
		if r.traced && r.w.name == "callstream" && i%3 == 2 {
			s.traced, s.syncBaseline = true, true
		}
		b := min(int(time.Since(start)*nblocks/r.budget), nblocks-1)
		if err := r.w.session(s); err != nil {
			_ = hs.Stop()
			return result{}, fmt.Errorf("%s session %d (seed %d): %w", r.w.name, i, r.seed, err)
		}
		r.absorb(s, &r.blocks[b])
	}
	// The peak is the 99th percentile of the samples: the single largest
	// reading depends on where one collection happened to fall and is too
	// noisy to compare.
	r.peakHeap = uint64(quantile(hs.Stop(), 0.99))
	return r.result(), nil
}

// heapEvery is how often a run samples the Go heap.
const heapEvery = 2 * time.Millisecond

// absorb folds one finished session into the run totals and, when
// untraced, into the block it started in.
func (r *run) absorb(s *session, b *block) {
	r.sessions++
	r.attempted += int64(s.attempted)
	if !s.correct {
		r.correct = false
	}
	if s.stopped {
		r.stopped = true
	}
	if s.syncBaseline {
		r.syncGood += int64(s.good) // the Figure-1 baseline feeds rpc.sync_call_us only
		return
	}
	t := 0
	if s.traced {
		t = 1
	}
	r.active[t] += s.active
	r.committed[t] += int64(s.good)
	if !r.traced {
		r.setups = append(r.setups, s.setup.Seconds())
		b.active += s.active
		b.committed += int64(s.good)
		b.cpu += s.cpu
		for _, d := range s.lat {
			b.lat.add(float64(d) / float64(time.Millisecond))
		}
	}
}

func (r *run) result() result {
	res := result{Correct: r.correct, Attempted: r.attempted, Metrics: map[string]metric{}}
	good := int64(0) // a reference mismatch fails every operation of the run
	if r.correct {
		good = r.committed[0] + r.committed[1] + r.syncGood
	}
	res.Failed = r.attempted - good
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	if r.traced {
		for _, m := range r.layers.metrics(r) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		return res
	}
	var rate, p50, p95, p99, cpu []float64
	for _, b := range r.blocks {
		if b.committed == 0 {
			continue
		}
		ops := float64(b.committed)
		rate = append(rate, ops/b.active.Seconds())
		p50 = append(p50, b.lat.quantile(0.50))
		p95 = append(p95, b.lat.quantile(0.95))
		p99 = append(p99, b.lat.quantile(0.99))
		cpu = append(cpu, float64(b.cpu)/float64(time.Microsecond)/ops)
	}
	res.Metrics["committed_ops_per_s"] = metric{median(rate), "1/s"}
	res.Metrics["commit_latency_p50_ms"] = metric{median(p50), "ms"}
	res.Metrics["commit_latency_p95_ms"] = metric{median(p95), "ms"}
	r.latencyP99 = median(p99)
	res.Metrics["cpu_us_per_op"] = metric{median(cpu), "us"}
	res.Metrics["peak_heap_mb"] = metric{float64(r.peakHeap) / (1 << 20), "MB"}
	res.Metrics["setup_s"] = metric{median(r.setups), "s"}
	return res
}

// report prints the human-readable summary: the host record, the
// reference-check verdict and every metric by name and unit.
func (r *run) report(f *os.File, res result) {
	fmt.Fprintf(f, "host: nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d traced=%v\n",
		r.host.NProc, r.host.GOMAXPROCS, r.host.GoVersion, r.host.Commit, r.w.name, r.seed, r.traced)
	verdict := "pass"
	if !res.Correct {
		verdict = "FAIL (committed output differs from the reference)"
	}
	fmt.Fprintf(f, "reference check: %s\n", verdict)
	failedRatio := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(f, "operations: attempted=%d failed=%d failed_ops_ratio=%.6f sessions=%d stopped_at_deadline=%v\n",
		res.Attempted, res.Failed, failedRatio, r.sessions, r.stopped)
	if !r.traced {
		// The p99 is printed but not gated: on wire_pingpong it falls
		// inside garbage-collection cycles, whose length follows the
		// host's load, and its run-to-run spread exceeds any usable bound.
		fmt.Fprintf(f, "commit_latency_p99_ms (not gated): %.6g ms\n", r.latencyP99)
		few := 0
		for _, b := range r.blocks {
			if b.lat.n < 1000 {
				few++
			}
		}
		if few > 0 {
			fmt.Fprintf(f, "note: %d of %d blocks hold fewer than 1000 latency samples, so fewer than ten beyond their p99\n", few, nblocks)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// save writes the result with its host record under r.out.
func (r *run) save(res result) error {
	rec := struct {
		Host   hostRecord `json:"host"`
		Result result     `json:"result"`
	}{r.host, res}
	return writeJSON(r.out, fmt.Sprintf("%s-seed%d-trace%d.json", r.w.name, r.seed, btoi(r.traced)), rec)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// session is one fresh system driven through one batch of operations.
type session struct {
	run          *run
	index        int
	seed         int64
	traced       bool // record spans, the event ring and layer counters
	syncBaseline bool // callstream only: Session.Call instead of StreamCall

	rts     []*hope.Runtime
	obs     []*hope.Observer
	closers []func() // run before the runtimes shut down
	live    *sampler // live-interval count, in every session of a traced run

	setupStart, driveStart time.Time
	cpuStart               time.Duration

	setup     time.Duration
	active    time.Duration
	cpu       time.Duration
	attempted int
	good      int
	correct   bool
	stopped   bool
	lat       []time.Duration
}

// observer returns the Observer a session attaches to each runtime: the
// full event ring when traced, metrics only otherwise (so a flight record
// always has a snapshot).
func (s *session) observer() *hope.Observer {
	var o *hope.Observer
	if s.traced {
		o = hope.NewObserver()
	} else {
		o = hope.NewObserver(hope.WithEventCapacity(0))
	}
	s.obs = append(s.obs, o)
	return o
}

func (s *session) beginSetup() { s.setupStart = time.Now() }

// beginDrive ends set-up and starts the timed phase.
func (s *session) beginDrive() {
	s.driveStart = time.Now()
	s.setup = s.driveStart.Sub(s.setupStart)
	s.cpuStart = cpuTime()
	if len(s.rts) > 0 {
		s.sampleLive()
	}
}

// sampleLive starts polling the session's trackers for their
// live-interval count. A traced run polls in its untraced sessions too,
// so that the trace overhead it reports compares sessions under the
// same harness load.
func (s *session) sampleLive() {
	if !s.run.traced {
		return
	}
	rts := s.rts
	s.live = startSampler(liveEvery, 256, func() float64 {
		total := 0
		for _, rt := range rts {
			for _, st := range rt.ShardStats() {
				total += st.LiveIntervals
			}
		}
		return float64(total)
	})
}

// liveEvery is how often a traced run samples live intervals.
const liveEvery = 2 * time.Millisecond

// endDrive ends the timed phase.
func (s *session) endDrive() {
	s.active = time.Since(s.driveStart)
	s.cpu = cpuTime() - s.cpuStart
	if s.live != nil {
		peak := slices.Max(s.live.Stop())
		if s.traced {
			s.run.layers.max("tracker.live_intervals", peak)
		}
	}
}

// await blocks until done closes or the run's deadline passes. On the
// deadline it writes the flight record and marks the session stopped.
func (s *session) await(done <-chan struct{}) bool {
	t := time.NewTimer(time.Until(s.run.deadline))
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
	}
	s.stopped = true
	if err := s.flightRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: flight record:", err)
	}
	return false
}

// settle takes a batch's outcome into the session.
func (s *session) settle(b *batch, attempted int) {
	s.attempted = attempted
	s.good, s.correct, s.lat = b.settle()
}

// shutdown stops every runtime of the session and waits for their
// processes, bounded so that a wedged runtime cannot hold the run past
// its deadline. It returns the processes' errors.
func (s *session) shutdown() error {
	done := make(chan error, 1)
	go func() {
		var errs []error
		for _, c := range s.closers {
			c()
		}
		for _, rt := range s.rts {
			rt.Shutdown()
		}
		for _, rt := range s.rts {
			errs = append(errs, rt.Wait()...)
		}
		done <- errors.Join(errs...)
	}()
	wait := 10 * time.Second
	if s.stopped {
		wait = time.Second
	}
	select {
	case err := <-done:
		if s.stopped {
			return nil // errors after a forced stop are expected
		}
		return err
	case <-time.After(wait):
		if s.stopped {
			return nil
		}
		return errors.New("runtime did not shut down")
	}
}

// flightRecord writes what a stopped session leaves behind: its seed,
// the host, and every runtime's DebugString and Observer snapshot.
func (s *session) flightRecord() error {
	type rtRecord struct {
		Debug    string `json:"debug"`
		Tracker  any    `json:"tracker_stats"`
		Observer any    `json:"observer"`
	}
	rec := struct {
		Host     hostRecord `json:"host"`
		Session  int        `json:"session"`
		Seed     int64      `json:"session_seed"`
		Runtimes []rtRecord `json:"runtimes"`
	}{Host: s.run.host, Session: s.index, Seed: s.seed}
	for i, rt := range s.rts {
		r := rtRecord{Debug: rt.DebugString(), Tracker: rt.TrackerStats()}
		if i < len(s.obs) {
			r.Observer = s.obs[i].Snapshot()
		}
		rec.Runtimes = append(rec.Runtimes, r)
	}
	name := fmt.Sprintf("flight-%s-seed%d-trace%d.json", s.run.w.name, s.run.seed, btoi(s.run.traced))
	fmt.Fprintf(os.Stderr, "perfbench: session %d stopped at the run deadline; flight record %s\n",
		s.index, filepath.Join(s.run.out, name))
	return writeJSON(s.run.out, name, rec)
}

// collect folds a traced session's runtime and observer counters into
// the per-layer accumulators.
func (s *session) collect(ops int) {
	if !s.traced {
		return
	}
	l := s.run.layers
	l.add("ops", float64(ops))
	for _, rt := range s.rts {
		st := rt.TrackerStats()
		l.add("tracker.guesses", float64(st.Guesses))
		l.add("tracker.denies", float64(st.DefiniteDenies+st.SpecDenies))
		l.add("tracker.affirms", float64(st.DefiniteAffirms+st.SpecAffirms))
		l.add("tracker.spec_affirms", float64(st.SpecAffirms))
		l.add("tracker.finalized", float64(st.Finalized))
		l.add("tracker.rolled_back", float64(st.RolledBack))
	}
	for _, o := range s.obs {
		snap := o.Snapshot()
		m := snap.Metrics
		l.add("engine.attempts", float64(m.Rollbacks+m.Resumes))
		l.add("engine.replayed", float64(m.ReplayedEnts))
		l.max("engine.sched_heap", float64(m.MaxSchedHeap))
		l.add("tracker.classify_hits", float64(m.ClassifyHits))
		l.add("tracker.classify_misses", float64(m.ClassifyMisses))
		l.add("tracker.shard_contention", float64(m.ShardContention))
		l.add("wire.verdict_fanout", float64(m.WireVerdictFanout))
		l.add("obs.events_dropped", float64(snap.EventsDropped))
		for _, p := range snap.WirePeers {
			l.add("wire.frames", float64(p.FramesOut))
			l.add("wire.bytes", float64(p.BytesOut))
		}
	}
}

// hostRecord identifies where and what a result was measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func newHostRecord(w string, seed int64, traced bool) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Workload:   w,
		Seed:       seed,
		Traced:     traced,
	}
}

// commitID reads the checked-out commit from the repository's .git
// directory (the benchmark runs from the root of a checkout), or
// reports "unknown" when the checkout is not a git work tree.
func commitID() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}
