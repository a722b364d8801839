package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"oagrid"
	"oagrid/internal/core"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

// The load shape shared by every workload.
const (
	// clients is the closed loop's width: each client submits its next
	// campaign only after Handle.Wait returned, so at most this many
	// campaigns (and client connections) are in flight.
	clients = 2
	// fleetSize profiles of platform.FiveClusters at fleetProcs processors
	// each serve every workload, Dial and Local alike.
	fleetSize  = 3
	fleetProcs = 30
	heuristic  = "knapsack"
	// heartbeat is the SeDs' beacon interval. Beats are wire traffic of
	// their own, so it is kept long next to a campaign.
	heartbeat = 500 * time.Millisecond
	// campaignTimeout counts a campaign that has not resolved by then as
	// failed (timed out).
	campaignTimeout = 60 * time.Second
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// dial runs campaigns through oagrid.Dial against an in-process fabric;
	// false runs them through oagrid.Local.
	dial bool
	// ns is every campaign's scenario count.
	ns int
	// months lists the month counts campaigns draw from by seed.
	months []int
}

var workloads = map[string]workload{
	"small": {name: "small", dial: true, ns: 4, months: []int{12}},
	"paper": {name: "paper", dial: true, ns: 10, months: []int{600, 1200, 1800}},
	"local": {name: "local", ns: 10, months: []int{120, 240, 360}},
}

// config is one benchmark run.
type config struct {
	w       workload
	seed    uint64
	seconds time.Duration
	traced  bool
	// setups is how many times set-up runs; setup_s is their median and
	// the last one serves the timed phase.
	setups int
	// probeBudget bounds each per-layer probe's sampling time.
	probeBudget time.Duration
	// spansOut receives the traced run's spans as JSON lines; empty skips
	// the dump.
	spansOut string
	// workDir holds the store probe's state dirs.
	workDir string
}

func defaultConfig(w workload, seed uint64, seconds time.Duration) config {
	return config{w: w, seed: seed, seconds: seconds, setups: 5, probeBudget: 400 * time.Millisecond, workDir: buildDir}
}

// specGen yields the campaign sequence of a workload and seed. Months are
// drawn in blocks: each block of len(months) consecutive campaigns is a
// seed-shuffled permutation of the month values, so the order depends on
// the seed while every run carries the same mix of work.
type specGen struct {
	ns     int
	months []int
	seed   uint64
}

func (g specGen) at(i int) core.Application {
	k := len(g.months)
	if k == 1 {
		return core.Application{Scenarios: g.ns, Months: g.months[0]}
	}
	rng := rand.New(rand.NewPCG(g.seed, uint64(i/k)))
	perm := rng.Perm(k)
	return core.Application{Scenarios: g.ns, Months: g.months[perm[i%k]]}
}

// fleet returns the profiles every workload runs on: the fabric's SeDs
// serve the same ones, and Local runs on them.
func fleet() []*platform.Cluster {
	profiles := platform.FiveClusters()[:fleetSize]
	for _, cl := range profiles {
		cl.Procs = fleetProcs
	}
	return profiles
}

// fleetByName keys the fleet by cluster name, the Verifier's input.
func fleetByName() map[string]*platform.Cluster {
	m := map[string]*platform.Cluster{}
	for _, cl := range fleet() {
		m[cl.Name] = cl
	}
	return m
}

// target is one deployment under test: a Runner plus the fabric it talks
// to (nil for Local).
type target struct {
	runner oagrid.Runner
	fabric *grid.Fabric
}

func (t *target) close() {
	if t.runner != nil {
		_ = t.runner.Close() // nothing to flush: campaigns are finished
	}
	if t.fabric != nil {
		t.fabric.Close()
	}
}

// startFabric brings up a scheduler plus the SeD fleet on loopback and
// dials it. A non-empty stateDir makes the scheduler durable.
func startFabric(ctx context.Context, stateDir string) (*target, error) {
	f, err := grid.StartFabric(grid.Config{Addr: "127.0.0.1:0", StateDir: stateDir}, fleetSize, fleetProcs, heartbeat)
	if err != nil {
		return nil, err
	}
	t := &target{fabric: f}
	if err := f.WaitAlive(fleetSize, 10*time.Second); err != nil {
		t.close()
		return nil, err
	}
	if t.runner, err = oagrid.Dial(ctx, f.Sched.Addr(), oagrid.WithHeuristic(heuristic)); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// setUp builds the workload's deployment and warms it: one campaign per
// month value fills the scheduler's perf-vector cache and the SeDs' plan
// caches.
func setUp(ctx context.Context, cfg config) (*target, error) {
	t := &target{}
	if cfg.w.dial {
		var err error
		if t, err = startFabric(ctx, ""); err != nil {
			return nil, err
		}
	} else {
		r, err := oagrid.Local(fleet(), oagrid.WithHeuristic(heuristic))
		if err != nil {
			return nil, err
		}
		t.runner = r
	}
	if err := warm(ctx, t.runner, cfg.w, len(cfg.w.months)); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// warm runs n campaigns serially, cycling through the month values.
func warm(ctx context.Context, r oagrid.Runner, w workload, n int) error {
	for i := range n {
		c := oagrid.NewCampaign(w.ns, w.months[i%len(w.months)])
		h, err := r.Run(ctx, c)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if _, err := h.Wait(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// outcome is one attempted campaign of a timed phase.
type outcome struct {
	app     core.Application
	id      uint64
	latency time.Duration
	// end is when the campaign resolved, relative to the phase start.
	end      time.Duration
	makespan float64
	// reports are the result's chunk reports, without the backend Result.
	reports  []oagrid.ClusterReport
	requeues int
	err      error
	// spans is the campaign's span tree (traced phases only).
	spans []span
}

// phase is the record of one timed closed-loop phase.
type phase struct {
	outcomes []outcome
	elapsed  time.Duration
}

// runPhase drives the closed loop for d: each of the clients takes the
// next campaign of the sequence (from index first on), runs it and waits
// for it, until d has passed; campaigns in flight at the deadline finish
// and count. The phase lasts until the last one resolved.
func runPhase(ctx context.Context, r oagrid.Runner, gen specGen, first int, d time.Duration, tr *tracer) phase {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				app := gen.at(int(next.Add(1) - 1))
				o := runOne(ctx, r, app, tr)
				o.end = time.Since(start)
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for _, outs := range per {
		ph.outcomes = append(ph.outcomes, outs...)
	}
	return ph
}

// runOne runs one campaign from Run to Wait. Traced, it also follows the
// event stream and records the campaign's spans.
func runOne(ctx context.Context, r oagrid.Runner, app core.Application, tr *tracer) outcome {
	ctx, cancel := context.WithTimeout(ctx, campaignTimeout)
	defer cancel()
	out := outcome{app: app}
	t0 := time.Now()
	h, err := r.Run(ctx, oagrid.Campaign{Experiment: app})
	if err != nil {
		out.err = err
		out.latency = time.Since(t0)
		return out
	}
	var marks eventMarks
	if tr != nil {
		marks = follow(h)
	}
	res, err := h.Wait()
	out.latency = time.Since(t0)
	out.id = h.ID()
	if tr != nil {
		out.spans = tr.campaignSpans(out.id, t0, t0.Add(out.latency), marks)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.makespan, out.requeues = res.Makespan, res.Requeues
	out.reports = make([]oagrid.ClusterReport, len(res.Reports))
	for i, rep := range res.Reports {
		rep.Result = nil
		out.reports[i] = rep
	}
	return out
}

// errUnverified marks a completed campaign whose result does not replay.
var errUnverified = errors.New("perfbench: result does not match serial replay")

// verify replays every completed campaign serially and marks the ones whose
// result differs, bit for bit, as failed. It returns the failure count
// (failed, rejected, timed-out and unverified campaigns alike).
func verify(v *grid.Verifier, outs []outcome) int {
	failed := 0
	for i := range outs {
		o := &outs[i]
		if o.err == nil {
			chunks := make([]grid.ChunkReport, len(o.reports))
			for k, rep := range o.reports {
				chunks[k] = grid.ChunkReport{Cluster: rep.Cluster, Scenarios: rep.Scenarios, Makespan: rep.Makespan, Round: rep.Round}
			}
			if err := v.VerifyChunks(o.app, o.makespan, chunks); err != nil {
				o.err = fmt.Errorf("%w: %v", errUnverified, err)
			}
		}
		if o.err != nil {
			failed++
		}
	}
	return failed
}
