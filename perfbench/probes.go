package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oagrid"
	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
	"oagrid/internal/store"
)

// The probes time the layers' public functions directly, outside any
// campaign, on the shapes the workload's own campaigns produced.

// sampleEach calls fn(i) for i in [0, n) round-robin until budget is spent
// and every i ran at least once, and returns every call's duration.
func sampleEach(budget time.Duration, n int, fn func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for i := range n {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
		}
	}
	return out, nil
}

// chunkShape is one planned chunk as a SeD executes it.
type chunkShape struct {
	cluster           string
	scenarios, months int
}

// chunkShapes lists the distinct chunk shapes of the completed campaigns,
// in a stable order.
func chunkShapes(outs []outcome) []chunkShape {
	seen := map[chunkShape]bool{}
	var shapes []chunkShape
	for _, o := range outs {
		for _, rep := range o.reports {
			s := chunkShape{rep.Cluster, rep.Scenarios, o.app.Months}
			if !seen[s] {
				seen[s] = true
				shapes = append(shapes, s)
			}
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		a, b := shapes[i], shapes[j]
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.months != b.months {
			return a.months < b.months
		}
		return a.scenarios < b.scenarios
	})
	return shapes
}

// layerProbes holds the probe samples of one traced run.
type layerProbes struct {
	perfVector  []time.Duration
	knapsack    []time.Duration
	repartition []time.Duration
	execRun     []time.Duration
	execRTT     []time.Duration
	appends     []time.Duration
	replay      []time.Duration
}

// probeEngine times engine.PerformanceVector for every month value on every
// fleet cluster, then core.Repartition over each month value's vectors.
func probeEngine(cfg config, p *layerProbes) error {
	h, err := core.ByName(heuristic)
	if err != nil {
		return err
	}
	clusters := fleet()
	months := cfg.w.months
	vecs := make([][][]float64, len(months))
	for i := range vecs {
		vecs[i] = make([][]float64, len(clusters))
	}
	p.perfVector, err = sampleEach(cfg.probeBudget, len(months)*len(clusters), func(i int) error {
		m, c := i/len(clusters), i%len(clusters)
		app := core.Application{Scenarios: cfg.w.ns, Months: months[m]}
		v, err := engine.PerformanceVector(engine.DES{}, app, clusters[c], h, engine.Options{}, 0)
		vecs[m][c] = v
		return err
	})
	if err != nil {
		return fmt.Errorf("perf-vector probe: %w", err)
	}
	p.repartition, err = sampleEach(cfg.probeBudget/4, len(months), func(m int) error {
		_, err := core.Repartition(vecs[m])
		return err
	})
	if err != nil {
		return fmt.Errorf("repartition probe: %w", err)
	}
	return nil
}

// probeExec times core.Knapsack.Plan and exec.Run for every planned chunk
// shape, the two calls a SeD makes per chunk.
func probeExec(cfg config, shapes []chunkShape, p *layerProbes) error {
	h, err := core.ByName(heuristic)
	if err != nil {
		return err
	}
	byName := fleetByName()
	apps := make([]core.Application, len(shapes))
	allocs := make([]core.Allocation, len(shapes))
	cls := make([]*platform.Cluster, len(shapes))
	for i, s := range shapes {
		apps[i] = core.Application{Scenarios: s.scenarios, Months: s.months}
		cls[i] = byName[s.cluster]
	}
	p.knapsack, err = sampleEach(cfg.probeBudget/4, len(shapes), func(i int) error {
		var err error
		allocs[i], err = h.Plan(apps[i], cls[i].Timing, cls[i].Procs)
		return err
	})
	if err != nil {
		return fmt.Errorf("knapsack probe: %w", err)
	}
	p.execRun, err = sampleEach(cfg.probeBudget, len(shapes), func(i int) error {
		_, err := exec.Run(apps[i], cls[i].Timing, cls[i].Procs, allocs[i], exec.Options{})
		return err
	})
	if err != nil {
		return fmt.Errorf("exec probe: %w", err)
	}
	return nil
}

// probeWire times an exec round trip (diet.RoundTripContext) to the SeD
// serving each planned chunk shape. Workloads without a fabric get a
// loopback SeD fleet of their own for the probe.
func probeWire(ctx context.Context, cfg config, t *target, shapes []chunkShape, p *layerProbes) error {
	addrs := map[string]string{}
	if t.fabric != nil {
		for _, sed := range t.fabric.SeDs {
			addrs[sed.Cluster().Name] = sed.Addr()
		}
	} else {
		for _, cl := range fleet() {
			sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
			if err != nil {
				return err
			}
			defer sed.Close()
			addrs[cl.Name] = sed.Addr()
		}
	}
	call := func(i int) error {
		s := shapes[i]
		ids := make([]int, s.scenarios)
		for k := range ids {
			ids[k] = k
		}
		_, err := diet.RoundTripContext(ctx, addrs[s.cluster], &diet.Request{
			Version: diet.ProtocolVersion,
			Kind:    diet.KindExec,
			Exec:    &diet.ExecRequest{ScenarioIDs: ids, Months: s.months, Heuristic: heuristic},
		}, campaignTimeout)
		return err
	}
	// The first exchange with an address negotiates the codec; keep it out
	// of the samples.
	for i := range shapes {
		if err := call(i); err != nil {
			return fmt.Errorf("exec round-trip probe: %w", err)
		}
	}
	var err error
	if p.execRTT, err = sampleEach(cfg.probeBudget, len(shapes), call); err != nil {
		return fmt.Errorf("exec round-trip probe: %w", err)
	}
	return nil
}

// probeStore exercises the store layer. It runs campaigns of the
// workload's sequence through a durable fabric (StateDir under workDir)
// until the probe budget is spent, closes it, and times store.ReplayFile
// on the daemon's journal. It then appends the journal's records, in
// order, to a fresh store.Open on the same filesystem, timing each fsynced
// Store.Append. It returns the journal's records and bytes per campaign.
func probeStore(ctx context.Context, cfg config, gen specGen, p *layerProbes) (recsPer, bytesPer float64, err error) {
	dir, err := os.MkdirTemp(cfg.workDir, "store-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	stateDir := filepath.Join(dir, "daemon")
	t, err := startFabric(ctx, stateDir)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < 20 || time.Since(start) < cfg.probeBudget; i++ {
		if o := runOne(ctx, t.runner, gen.at(i), nil); o.err != nil {
			t.close()
			return 0, 0, fmt.Errorf("store probe campaign: %w", o.err)
		}
	}
	t.close()

	journal := filepath.Join(stateDir, "campaigns.wal")
	var campaigns map[uint64]*store.Campaign
	for range 3 {
		t0 := time.Now()
		if campaigns, err = store.ReplayFile(journal); err != nil {
			return 0, 0, err
		}
		p.replay = append(p.replay, time.Since(t0))
	}
	fi, err := os.Stat(journal)
	if err != nil {
		return 0, 0, err
	}
	st, _, err := store.Open(filepath.Join(dir, "fresh"))
	if err != nil {
		return 0, 0, err
	}
	records := 0
	for _, c := range store.ByID(campaigns) {
		for _, rec := range c.Records() {
			t0 := time.Now()
			if err := st.Append(rec); err != nil {
				st.Close()
				return 0, 0, fmt.Errorf("store probe: %w", err)
			}
			p.appends = append(p.appends, time.Since(t0))
			records++
		}
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	n := float64(len(campaigns))
	return float64(records) / n, float64(fi.Size()) / n, nil
}

// fetchInfos collects Runner.Info for up to n of the phase's most recent
// campaigns — the queue-wait and round gauges the runner keeps per
// campaign. It runs after the phase, so the round trips stay out of the
// traced timings.
func fetchInfos(ctx context.Context, r oagrid.Runner, outs []outcome, n int) ([]oagrid.CampaignInfo, error) {
	var ids []uint64
	for _, o := range outs {
		if o.err == nil {
			ids = append(ids, o.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	infos := make([]oagrid.CampaignInfo, 0, len(ids))
	for _, id := range ids {
		info, err := r.Info(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("info %d: %w", id, err)
		}
		infos = append(infos, *info)
	}
	return infos, nil
}
