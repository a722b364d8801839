package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// reconcileTolerancePct is how far the sum of the oagrid.* span medians may
// stray from the traced end-to-end median before the trace is reported as
// not accounting for the latency. A campaign's spans tile its latency
// exactly, so their means always add up; their medians do not when the
// stage durations are wide and skewed, as on paper, where the other
// client's campaign shares both CPUs and the sum of medians falls up to
// about a fifth short.
const reconcileTolerancePct = 25

// run executes one benchmark run: set-up (repeated cfg.setups times), then
// a timed closed-loop phase with tracing off — traced, half as long and
// followed by an equally long traced phase and the layer probes.
// Provenance lines go to out; the result line is the caller's to print.
func run(ctx context.Context, cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	setups, t, err := setUpRepeated(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer t.close()
	v, err := grid.NewVerifier(fleetByName(), heuristic)
	if err != nil {
		return nil, err
	}
	gen := specGen{ns: cfg.w.ns, months: cfg.w.months, seed: cfg.seed}

	// A traced run splits its time between an untraced phase, the base for
	// trace.overhead_pct and the GC counts, and the traced phase.
	d := cfg.seconds
	if cfg.traced {
		d /= 2
	}
	base, baseUse, marks := measure(ctx, t, gen, d)
	failed := verify(v, base.outcomes)
	attempted := len(base.outcomes)
	var metrics map[string]metric
	var traced phase
	if cfg.traced {
		traced, metrics, err = traceRun(ctx, cfg, out, t, gen, d, base, baseUse, v)
		if err != nil {
			return nil, err
		}
		failed += countFailed(traced.outcomes)
		attempted += len(traced.outcomes)
	} else if metrics, err = endToEnd(base, baseUse, d, marks, setups); err != nil {
		return nil, err
	}
	prov := newProvenance(cfg, setups, append(append([]outcome(nil), base.outcomes...), traced.outcomes...), attempted, failed)
	prov.WindowRates, _, _, _ = windowStats(base, d, marks)
	line, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "provenance: %s\n", line)
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// setUpRepeated runs set-up cfg.setups times, keeping the last deployment,
// and returns every set-up's duration in seconds.
func setUpRepeated(ctx context.Context, cfg config) ([]float64, *target, error) {
	var times []float64
	var t *target
	for range max(cfg.setups, 1) {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		next, err := setUp(ctx, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		t = next
	}
	return times, t, nil
}

// usage is a snapshot of the runtime's allocation and GC counters.
type usage struct {
	alloc uint64
	gcs   uint32
	pause uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
		pause: ms.PauseTotalNs,
	}
}

func (u usage) sub(v usage) usage {
	return usage{alloc: u.alloc - v.alloc, gcs: u.gcs - v.gcs, pause: u.pause - v.pause}
}

// windows is how many equal windows a timed phase is cut into. The
// throughput, median-latency and CPU metrics are medians over the windows,
// so a stall that hits a minority of them (another tenant of the machine
// taking the CPU or the disk for a moment) does not move the run's figure.
const windows = 10

// measure runs the untraced timed phase and returns it with the
// allocation and GC counters it moved and the process's cumulative CPU
// time at each window boundary.
func measure(ctx context.Context, t *target, gen specGen, d time.Duration) (phase, usage, []time.Duration) {
	runtime.GC()
	before := readUsage()
	marks := make([]time.Duration, 0, windows+1)
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		start := time.Now()
		marks = append(marks, cpuTime())
		for k := 1; k <= windows; k++ {
			select {
			case <-done:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * d / windows))):
				marks = append(marks, cpuTime())
			}
		}
	}()
	ph := runPhase(ctx, t.runner, gen, 0, d, nil)
	close(done)
	<-sampled
	return ph, readUsage().sub(before), marks
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowStats cuts a phase of length d into its windows and returns, per
// window: the completion rate, the median and p95 latency of the verified
// campaigns that resolved in it, and the CPU time per such campaign. A
// campaign adds to each window's rate the share of its lifetime that lies
// in the window, so the rate is not quantized to whole campaigns. Windows
// in which no campaign resolved are skipped.
func windowStats(ph phase, d time.Duration, marks []time.Duration) (rates, p50s, p95s, cpus []float64) {
	w := d / windows
	lat := make([][]float64, windows)
	work := make([]float64, windows)
	for _, o := range completed(ph.outcomes) {
		// A campaign that resolved after the deadline belongs to the last
		// window.
		k := min(int(o.end/w), windows-1)
		lat[k] = append(lat[k], ms(o.latency))
		start := o.end - o.latency
		for k := max(int(start/w), 0); k < windows && time.Duration(k)*w < o.end; k++ {
			lo := max(start, time.Duration(k)*w)
			hi := min(o.end, time.Duration(k+1)*w)
			work[k] += float64(hi-lo) / float64(o.latency)
		}
	}
	for k := range windows {
		if len(lat[k]) == 0 || k+1 >= len(marks) {
			continue
		}
		rates = append(rates, work[k]/w.Seconds())
		p50s = append(p50s, quantile(lat[k], 0.50))
		p95s = append(p95s, quantile(lat[k], 0.95))
		cpus = append(cpus, ms(marks[k+1]-marks[k])/float64(len(lat[k])))
	}
	return rates, p50s, p95s, cpus
}

// completed returns the phase's verified campaigns.
func completed(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	return ok
}

func countFailed(outs []outcome) int { return len(outs) - len(completed(outs)) }

var errNoneCompleted = errors.New("perfbench: no campaign completed in the timed phase")

// endToEnd computes the user-facing metrics of the untraced phase.
func endToEnd(ph phase, use usage, d time.Duration, marks []time.Duration, setups []float64) (map[string]metric, error) {
	ok := completed(ph.outcomes)
	rates, p50s, p95s, cpus := windowStats(ph, d, marks)
	if len(rates) == 0 {
		return nil, errNoneCompleted
	}
	n := float64(len(ok))
	var makespan float64
	for _, o := range ok {
		makespan += o.makespan
	}
	return map[string]metric{
		"campaigns_per_s":       {quantile(rates, 0.5), "1/s"},
		"latency_p50_ms":        {quantile(p50s, 0.5), "ms"},
		"latency_p95_ms":        {quantile(p95s, 0.5), "ms"},
		"setup_s":               {quantile(setups, 0.5), "s"},
		"cpu_ms_per_campaign":   {quantile(cpus, 0.5), "ms"},
		"alloc_kb_per_campaign": {float64(use.alloc) / 1024 / n, "KiB"},
		"sim_makespan_h":        {makespan / n / 3600, "sim_h"},
	}, nil
}

// traceRun runs the traced phase and the layer probes and computes the
// per-layer metrics. base is the untraced phase that preceded it.
func traceRun(ctx context.Context, cfg config, out io.Writer, t *target, gen specGen, d time.Duration, base phase, baseUse usage, v *grid.Verifier) (phase, map[string]metric, error) {
	tr := &tracer{origin: time.Now()}
	stopSampler := sampleQueueDepth(t)
	wire0 := diet.WireStats()
	ph := runPhase(ctx, t.runner, gen, len(base.outcomes), d, tr)
	wire1 := diet.WireStats()
	depthMax := stopSampler()
	verify(v, ph.outcomes)
	ok := completed(ph.outcomes)
	baseOK := completed(base.outcomes)
	if len(ok) == 0 || len(baseOK) == 0 {
		return ph, nil, errNoneCompleted
	}
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, ph.outcomes); err != nil {
			return ph, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	infos, err := fetchInfos(ctx, t.runner, ph.outcomes, 2000)
	if err != nil {
		return ph, nil, err
	}

	var p layerProbes
	recsPer, bytesPer, err := probeStore(ctx, cfg, gen, &p)
	if err != nil {
		return ph, nil, err
	}
	shapes := chunkShapes(ok)
	if err := probeEngine(cfg, &p); err != nil {
		return ph, nil, err
	}
	if err := probeExec(cfg, shapes, &p); err != nil {
		return ph, nil, err
	}
	if err := probeWire(ctx, cfg, t, shapes, &p); err != nil {
		return ph, nil, err
	}

	// Spans: per-stage durations and the root's self time.
	stage := map[string][]float64{}
	var e2e, unattributed []float64
	requeues := 0
	for _, o := range append(append([]outcome(nil), baseOK...), ok...) {
		requeues += o.requeues
	}
	for _, o := range ok {
		e2e = append(e2e, ms(o.latency))
		unattributed = append(unattributed, ms(selfTime(o.spans, 0)))
		for _, s := range o.spans[1:] {
			stage[s.Name] = append(stage[s.Name], ms(s.duration()))
		}
	}
	var waits []float64
	rounds := 0.0
	for _, in := range infos {
		waits = append(waits, in.WaitMs)
		rounds += float64(in.Rounds)
	}
	n := float64(len(ok))
	nBase := float64(len(baseOK))
	m := map[string]metric{
		"oagrid.unattributed_ms_p50":       {quantile(unattributed, 0.5), "ms"},
		"grid.queue_wait_ms_p50":           {quantile(waits, 0.5), "ms"},
		"grid.queue_wait_ms_p95":           {quantile(waits, 0.95), "ms"},
		"grid.queue_depth_max":             {float64(depthMax), "count"},
		"grid.rounds_per_campaign":         {rounds / float64(max(len(infos), 1)), "count"},
		"grid.requeues":                    {float64(requeues), "count"},
		"diet.frames_per_campaign":         {float64(wire1.FramesTx+wire1.FramesRx-wire0.FramesTx-wire0.FramesRx) / n, "count"},
		"diet.bytes_tx_per_campaign":       {float64(wire1.BytesTx-wire0.BytesTx) / n, "B"},
		"diet.bytes_rx_per_campaign":       {float64(wire1.BytesRx-wire0.BytesRx) / n, "B"},
		"diet.exec_rtt_us_p50":             {quantile(us(p.execRTT), 0.5), "us"},
		"diet.exec_rtt_us_p95":             {quantile(us(p.execRTT), 0.95), "us"},
		"store.append_us_p50":              {quantile(us(p.appends), 0.5), "us"},
		"store.append_us_p95":              {quantile(us(p.appends), 0.95), "us"},
		"store.records_per_campaign":       {recsPer, "count"},
		"store.bytes_per_campaign":         {bytesPer, "B"},
		"store.replay_ms":                  {quantile(msAll(p.replay), 0.5), "ms"},
		"engine.perf_vector_ms_p50":        {quantile(msAll(p.perfVector), 0.5), "ms"},
		"exec.run_ms_p50":                  {quantile(msAll(p.execRun), 0.5), "ms"},
		"core.knapsack_plan_us_p50":        {quantile(us(p.knapsack), 0.5), "us"},
		"core.repartition_us_p50":          {quantile(us(p.repartition), 0.5), "us"},
		"runtime.gc_cycles_per_campaign":   {float64(baseUse.gcs) / nBase, "count"},
		"runtime.gc_pause_us_per_campaign": {float64(baseUse.pause) / 1e3 / nBase, "us"},
	}
	sum := m["oagrid.unattributed_ms_p50"].Value
	for _, name := range []string{spanAdmit, spanPlan, spanExec, spanResult} {
		m[name+"_ms_p50"] = metric{quantile(stage[name], 0.5), "ms"}
		m[name+"_ms_p95"] = metric{quantile(stage[name], 0.95), "ms"}
		sum += m[name+"_ms_p50"].Value
	}
	tracedP50 := quantile(e2e, 0.5)
	gap := 100 * math.Abs(sum-tracedP50) / tracedP50
	m["trace.reconcile_gap_pct"] = metric{gap, "%"}
	cpsBase := nBase / base.elapsed.Seconds()
	cpsTraced := n / ph.elapsed.Seconds()
	m["trace.overhead_pct"] = metric{100 * (cpsBase - cpsTraced) / cpsBase, "%"}
	verdict := "accounts for"
	if gap > reconcileTolerancePct {
		verdict = "DOES NOT account for"
	}
	fmt.Fprintf(out, "reconcile: span medians sum to %.4g ms, which %s the traced latency_p50_ms %.4g ms (gap %.2f%%, tolerance %d%%); untraced latency_p50_ms %.4g ms\n",
		sum, verdict, tracedP50, gap, reconcileTolerancePct, quantile(latencies(baseOK), 0.5))
	return ph, m, nil
}

// sampleQueueDepth polls the scheduler's queue depth until the returned
// stop function is called; stop returns the deepest queue seen. Local
// runners have no admission queue.
func sampleQueueDepth(t *target) (stop func() int) {
	if t.fabric == nil {
		return func() int { return 0 }
	}
	done := make(chan struct{})
	peak := make(chan int, 1)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		deepest := 0
		for {
			select {
			case <-done:
				peak <- deepest
				return
			case <-tick.C:
				deepest = max(deepest, t.fabric.Sched.Stats().QueueDepth)
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func latencies(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = ms(o.latency)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance records what a run measured and on what.
type provenance struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// ErrorRate is failed, rejected, timed-out and unverified campaigns
	// over attempted ones.
	ErrorRate float64 `json:"error_rate"`
	// Samples counts the latency samples of the timed phases; TailSamples
	// how many of them lie beyond p95.
	Samples     int `json:"latency_samples"`
	TailSamples int `json:"samples_beyond_p95"`
	// Shapes counts attempted campaigns by "NSxNM" shape.
	Shapes    map[string]int `json:"shape_histogram"`
	SetupRuns []float64      `json:"setup_runs_s"`
	// WindowRates are the untraced phase's per-window completion rates.
	WindowRates []float64 `json:"window_rates_per_s"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	// StateDirFS is the filesystem of the store probe's state dir.
	StateDirFS string   `json:"state_dir_fs"`
	Network    string   `json:"network"`
	Clients    int      `json:"clients"`
	Fleet      []string `json:"fleet"`
	Procs      int      `json:"procs_per_cluster"`
	Heuristic  string   `json:"heuristic"`
}

func newProvenance(cfg config, setups []float64, outs []outcome, attempted, failed int) provenance {
	p := provenance{
		Workload:   cfg.w.name,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		Attempted:  attempted,
		Failed:     failed,
		ErrorRate:  float64(failed) / float64(max(attempted, 1)),
		Shapes:     map[string]int{},
		SetupRuns:  setups,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateDirFS: fsType(cfg.workDir),
		Network:    "in-process fabric on 127.0.0.1: traffic crosses the host loopback, not a real link",
		Clients:    clients,
		Procs:      fleetProcs,
		Heuristic:  heuristic,
	}
	if !cfg.w.dial {
		p.Network = "none: oagrid.Local runs in process"
	}
	for _, cl := range fleet() {
		p.Fleet = append(p.Fleet, cl.Name)
	}
	lat := latencies(completed(outs))
	p.Samples = len(lat)
	p95 := quantile(lat, 0.95)
	for _, l := range lat {
		if l > p95 {
			p.TailSamples++
		}
	}
	for _, o := range outs {
		p.Shapes[fmt.Sprintf("%dx%d", o.app.Scenarios, o.app.Months)]++
	}
	return p
}

// fsType names the filesystem holding path, from statfs's magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53:     "ext2/ext3/ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("unknown (magic 0x%X)", st.Type)
}
