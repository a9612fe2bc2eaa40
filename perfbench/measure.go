package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sampler reads a value at a fixed interval from its start until Stop.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// startSampler calls read every interval until Stop. The sample slice
// is allocated up front for expect samples, so a run's own bookkeeping
// does not grow the heap it measures.
func startSampler(every time.Duration, expect int, read func() float64) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{}), samples: make([]float64, 0, expect)}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			sm.samples = append(sm.samples, read())
			select {
			case <-sm.stop:
				return
			case <-t.C:
			}
		}
	}()
	return sm
}

// Stop ends sampling and returns the samples.
func (sm *sampler) Stop() []float64 {
	close(sm.stop)
	<-sm.done
	return sm.samples
}

// heapBytes reads the Go heap (bytes in live and not yet swept
// objects). runtime/metrics reads it without stopping the world, so
// sampling does not perturb the run.
func heapBytes() func() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	return func() float64 {
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
}

// latHist is a fixed-size histogram of latencies in milliseconds, with
// buckets 1% wide on a log scale from 1 µs to 100 s (values outside
// fall into the end buckets). Its size does not depend on how many
// operations a run commits.
type latHist struct {
	counts [histBuckets]uint32
	n      int
}

const (
	histMin     = 1e-3 // ms
	histGrowth  = 1.01
	histBuckets = 1852 // histMin·histGrowth^histBuckets > 1e5 ms
)

func (h *latHist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/math.Log(histGrowth)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile, interpolated geometrically inside
// the bucket that holds it; 0 for an empty histogram.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(q*float64(h.n), 1)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			return histMin * math.Pow(histGrowth, float64(i)+(rank-cum)/float64(c))
		}
		cum += float64(c)
	}
	return histMin * math.Pow(histGrowth, histBuckets)
}

// batch tracks the operations of one session from first issue to
// commit. Process bodies call issue (possibly again under replay; the
// first call wins) and their commit callbacks call commit, so every
// method is safe for concurrent use.
type batch struct {
	mu        sync.Mutex
	issued    []time.Time
	committed []bool
	lat       []time.Duration
	left      int
	mismatch  int // commits whose output differed from the reference
	dups      int // operations committed more than once
	done      chan struct{}
}

func newBatch(n int) *batch {
	return &batch{
		issued:    make([]time.Time, n),
		committed: make([]bool, n),
		lat:       make([]time.Duration, 0, n),
		left:      n,
		done:      make(chan struct{}),
	}
}

// clock reads the wall clock for the benchmark's own timings inside
// process bodies. A reading flows only into commit callbacks and the
// harness's records, never into a body's control flow or messages, so
// replay cannot diverge on it.
func clock() time.Time {
	return time.Now() //hopelint:ignore nondeterminism -- benchmark timing, see above
}

// issue records operation i's first issue; a replay finds it recorded.
func (b *batch) issue(i int) {
	b.mu.Lock()
	if b.issued[i].IsZero() {
		b.issued[i] = clock() //hopevet:ignore escape -- harness record, written once
	}
	b.mu.Unlock()
}

// issuedAt returns operation i's first issue time.
func (b *batch) issuedAt(i int) time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.issued[i]
}

// commit records operation i's commit; ok reports whether its committed
// output matched the reference.
func (b *batch) commit(i int, ok bool) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.committed[i] {
		b.dups++
		return
	}
	b.committed[i] = true
	if !ok {
		b.mismatch++
	}
	b.lat = append(b.lat, now.Sub(b.issued[i]))
	b.left--
	if b.left == 0 {
		close(b.done)
	}
}

// settle reports the batch's outcome: committed operations whose output
// matched, and whether every committed output matched exactly once.
func (b *batch) settle() (good int, correct bool, lat []time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mismatch > 0 || b.dups > 0 {
		return 0, false, nil
	}
	return len(b.lat), true, append([]time.Duration(nil), b.lat...)
}
