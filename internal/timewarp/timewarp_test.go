package timewarp

import (
	"io"
	"reflect"
	"testing"
	"time"

	"hope/internal/engine"
)

func base() Config {
	return Config{LPs: 4, Population: 8, Horizon: 200, MaxDelta: 10, Seed: 42}
}

func TestSequentialDeterministic(t *testing.T) {
	a := Sequential(base())
	b := Sequential(base())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sequential run not deterministic")
	}
	if a.Events == 0 {
		t.Fatal("no events processed")
	}
}

func TestSequentialEventConservation(t *testing.T) {
	// PHOLD with one successor per event: total committed events is
	// population × average hops; every initial chain survives to the
	// horizon. Verify events are counted per LP consistently.
	res := Sequential(base())
	sum := 0
	for _, c := range res.Committed {
		sum += len(c)
	}
	if sum != res.Events {
		t.Fatalf("per-LP sum %d != total %d", sum, res.Events)
	}
	// Timestamps never exceed the horizon.
	for lp, c := range res.Committed {
		for _, ts := range c {
			if ts > base().Horizon {
				t.Fatalf("lp%d committed ts %d beyond horizon", lp, ts)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cfg := base()
	want := Sequential(cfg)
	got, err := Parallel(cfg, engine.WithOutput(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if got.Events != want.Events {
		t.Fatalf("events = %d, want %d", got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Committed, want.Committed) {
		t.Fatalf("committed multisets diverge:\n got %v\nwant %v", got.Committed, want.Committed)
	}
	t.Logf("events=%d rollbacks=%d stragglers=%d", got.Events, got.Rollbacks, got.Stragglers)
}

// TestParallelMatchesSequentialManySeeds runs each seed at the default
// shard count and at 1 and 8 shards: one shard settles every operation
// under the all-shard lock, eight let cross-LP settles escape their
// home shards and escalate, so both settle paths meet real denies
// against the Sequential oracle.
func TestParallelMatchesSequentialManySeeds(t *testing.T) {
	for _, shards := range []int{0, 1, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := Config{LPs: 3, Population: 5, Horizon: 120, MaxDelta: 7, Seed: seed}
			want := Sequential(cfg)
			got, err := Parallel(cfg, engine.WithOutput(io.Discard), engine.WithShards(shards))
			if err != nil {
				t.Fatalf("shards %d, seed %d: %v", shards, seed, err)
			}
			if !reflect.DeepEqual(got.Committed, want.Committed) {
				t.Fatalf("shards %d, seed %d: committed multisets diverge", shards, seed)
			}
		}
	}
}

func TestParallelWithLatencyStragglers(t *testing.T) {
	// Heterogeneous link latency provokes out-of-order arrivals; the
	// result must still match the sequential baseline exactly.
	cfg := Config{LPs: 4, Population: 6, Horizon: 150, MaxDelta: 8, Seed: 7}
	want := Sequential(cfg)
	lat := func(from, to string) time.Duration {
		// Ring-position-dependent delays to skew arrival order.
		if from == "lp0" || to == "lp2" {
			return 2 * time.Millisecond
		}
		return 200 * time.Microsecond
	}
	got, err := Parallel(cfg, engine.WithOutput(io.Discard), engine.WithLatency(lat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Committed, want.Committed) {
		t.Fatalf("committed multisets diverge under latency:\n got %v\nwant %v", got.Committed, want.Committed)
	}
	t.Logf("rollbacks=%d stragglers=%d", got.Rollbacks, got.Stragglers)
}

func TestSingleLPDegeneratesToSequential(t *testing.T) {
	cfg := Config{LPs: 1, Population: 4, Horizon: 100, MaxDelta: 5, Seed: 3}
	want := Sequential(cfg)
	got, err := Parallel(cfg, engine.WithOutput(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Committed, want.Committed) {
		t.Fatal("single-LP parallel diverges from sequential")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.LPs != 1 || c.Population != 1 || c.MaxDelta != 1 {
		t.Fatalf("normalize = %+v", c)
	}
}

func TestSuccessorDiesAtHorizon(t *testing.T) {
	cfg := Config{LPs: 2, MaxDelta: 5, Horizon: 10, Seed: 1}.normalize()
	e := Event{TS: 10, Seed: 9}
	if _, ok := cfg.successor(e); ok {
		t.Fatal("successor beyond horizon should die")
	}
	e = Event{TS: 1, Seed: 9}
	if next, ok := cfg.successor(e); !ok || next.TS <= e.TS {
		t.Fatalf("successor = %+v, %v", next, ok)
	}
}
