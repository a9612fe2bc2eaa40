package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hope"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func lookup(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestWorkloadsShort runs every benchmark workload briefly, traced and
// untraced: each must pass its reference check with no failed operation
// and report exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsShort(t *testing.T) {
	spec := loadSpec(t)
	budget := 300 * time.Millisecond
	if testing.Short() {
		budget = 100 * time.Millisecond
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := newRun(lookup(t, w.Name), 7, budget, traced, t.TempDir())
			res, err := r.execute()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for n, m := range res.Metrics {
				got = append(got, n+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s traced=%v metrics:\n got %v\nwant %v", w.Name, traced, got, exp)
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// hangSession starts one operation that can never commit: its process
// waits for a message nobody sends.
func hangSession(s *session) error {
	b := newBatch(1)
	s.beginSetup()
	rt := hope.New(hope.WithPolicy(hope.Policy{Output: io.Discard, Observer: s.observer()}))
	s.rts = append(s.rts, rt)
	s.beginDrive()
	if err := rt.Spawn("stuck", func(p *hope.Proc) error {
		b.issue(0)
		_, err := p.Recv()
		if errors.Is(err, hope.ErrShutdown) {
			return nil
		}
		return err
	}); err != nil {
		return err
	}
	s.await(b.done)
	s.endDrive()
	s.settle(b, 1)
	return s.shutdown()
}

// TestDeadlineStopsRun checks that a run still going at its deadline is
// stopped, counts its uncommitted operation as failed and leaves a
// flight record with the runtime's state.
func TestDeadlineStopsRun(t *testing.T) {
	dir := t.TempDir()
	r := newRun(workload{"hang", hangSession}, 3, 50*time.Millisecond, false, dir)
	r.grace = 100 * time.Millisecond
	res, err := r.execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 1 || res.Failed != 1 || !r.stopped {
		t.Fatalf("attempted=%d failed=%d stopped=%v, want 1, 1, true", res.Attempted, res.Failed, r.stopped)
	}
	b, err := os.ReadFile(filepath.Join(dir, "flight-hang-seed3-trace0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Host     hostRecord
		Runtimes []struct {
			Debug    string
			Observer json.RawMessage
		}
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host.Seed != 3 || len(rec.Runtimes) != 1 ||
		!strings.Contains(rec.Runtimes[0].Debug, "stuck") || len(rec.Runtimes[0].Observer) < 3 {
		t.Fatalf("flight record lacks the seed, runtime state or observer snapshot:\n%s", b)
	}
}
