package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"oagrid/internal/grid"
)

// contract is the part of BENCHMARK.json the program must honour: every
// metric it declares, by name and unit.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tinyConfig is a run of the named workload shrunk to test size.
func tinyConfig(t *testing.T, name string, traced bool) config {
	cfg := defaultConfig(workloads[name], 7, 300*time.Millisecond)
	cfg.traced = traced
	cfg.setups = 1
	cfg.probeBudget = 20 * time.Millisecond
	cfg.workDir = t.TempDir()
	return cfg
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and traced,
// and checks that each declared metric is reported with its unit and a
// finite value, and that no campaign failed or was requeued.
func TestWorkloadsTiny(t *testing.T) {
	c := loadContract(t)
	for _, name := range []string{"small", "paper", "local"} {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			mode := "untraced"
			if traced {
				want, mode = c.PerLayer, "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rep, err := run(context.Background(), tinyConfig(t, name, traced), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("error rate not 0: %d of %d failed (correct=%v)", rep.Failed, rep.Attempted, rep.Correct)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for _, w := range want {
					m, ok := rep.Metrics[w.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", w.Name)
					case m.Unit != w.Unit:
						t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v, not finite", w.Name, m.Value)
					}
				}
				if traced && rep.Metrics["grid.requeues"].Value != 0 {
					t.Errorf("grid.requeues = %v, want 0", rep.Metrics["grid.requeues"].Value)
				}
			})
		}
	}
}

// TestVerifyCatchesCorruptMakespan feeds the verification step one result
// whose chunk makespan is off by one ulp and expects exactly that campaign
// to be counted as failed.
func TestVerifyCatchesCorruptMakespan(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "small", false)
	tgt, err := setUp(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.close()
	v, err := grid.NewVerifier(fleetByName(), heuristic)
	if err != nil {
		t.Fatal(err)
	}
	ph := runPhase(ctx, tgt.runner, specGen{ns: cfg.w.ns, months: cfg.w.months, seed: cfg.seed}, 0, 100*time.Millisecond, nil)
	outs := ph.outcomes
	if len(outs) < 2 {
		t.Fatalf("only %d campaigns ran", len(outs))
	}
	if n := verify(v, outs); n != 0 {
		t.Fatalf("%d healthy campaigns failed verification", n)
	}
	rep := &outs[1].reports[0]
	rep.Makespan = math.Nextafter(rep.Makespan, math.Inf(1))
	if n := verify(v, outs); n != 1 {
		t.Fatalf("verification counted %d failures, want 1", n)
	}
	if !errors.Is(outs[1].err, errUnverified) {
		t.Fatalf("corrupted campaign error %v, want errUnverified", outs[1].err)
	}
}

// TestSpecGenBlocks checks that the campaign sequence is a function of the
// seed and that every block carries each month value once.
func TestSpecGenBlocks(t *testing.T) {
	g := specGen{ns: 10, months: []int{600, 1200, 1800}, seed: 42}
	other := specGen{ns: 10, months: g.months, seed: 43}
	differs := false
	for b := range 50 {
		seen := map[int]bool{}
		for i := 3 * b; i < 3*b+3; i++ {
			if g.at(i) != g.at(i) {
				t.Fatalf("campaign %d differs between two draws of one seed", i)
			}
			differs = differs || g.at(i) != other.at(i)
			seen[g.at(i).Months] = true
		}
		if len(seen) != 3 {
			t.Fatalf("block %d months %v, want each value once", b, seen)
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 generated the same sequence")
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, overlaps counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 90, End: 120},
	}
	if got := selfTime(spans, 0); got != 40 {
		t.Fatalf("self time %d, want 40", got)
	}
}
