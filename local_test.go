package oagrid

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
)

// runToEnd runs one campaign and returns its result together with every
// EventChunkDone report the handle streamed.
func runToEnd(t *testing.T, runner Runner, c Campaign) (*CampaignResult, []ClusterReport) {
	t.Helper()
	h, err := runner.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var chunks []ClusterReport
	for ev := range h.Events() {
		if chunk, ok := ev.(EventChunkDone); ok {
			chunks = append(chunks, chunk.Report)
		}
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res, chunks
}

// TestLocalRunnerOptions covers the Local-only runner options end to end:
// the evaluator WithBackend selects is the one every chunk runs on,
// WithTrace attaches a traced backend Result to every report, and the
// sweep pool size WithWorkers picks never changes a result.
func TestLocalRunnerOptions(t *testing.T) {
	fleet := testFleet(3)
	byName := make(map[string]*Cluster, len(fleet))
	for _, cl := range fleet {
		byName[cl.Name] = cl
	}
	campaign := NewCampaign(8, 24)

	t.Run("backend", func(t *testing.T) {
		runner, err := Local(fleet, WithBackend(ModelBackend))
		if err != nil {
			t.Fatal(err)
		}
		defer runner.Close()
		res, _ := runToEnd(t, runner, campaign)
		if len(res.Reports) == 0 {
			t.Fatal("campaign produced no chunk reports")
		}
		for _, rep := range res.Reports {
			cl := byName[rep.Cluster]
			share := core.Application{Scenarios: rep.Scenarios, Months: campaign.Experiment.Months}
			alloc, err := Knapsack.Plan(share, cl.Timing, cl.Procs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Model{}.Evaluate(share, cl, alloc, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rep.Makespan) != math.Float64bits(want.Makespan) {
				t.Fatalf("cluster %s×%d: makespan %g, serial model evaluation %g", rep.Cluster, rep.Scenarios, rep.Makespan, want.Makespan)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		runner, err := Local(fleet, WithTrace())
		if err != nil {
			t.Fatal(err)
		}
		defer runner.Close()
		res, chunks := runToEnd(t, runner, campaign)
		if len(chunks) == 0 {
			t.Fatal("no EventChunkDone streamed")
		}
		for where, reps := range map[string][]ClusterReport{"result": res.Reports, "event": chunks} {
			for _, rep := range reps {
				if rep.Result == nil || rep.Result.Trace == nil {
					t.Fatalf("%s report %s×%d carries no traced backend result", where, rep.Cluster, rep.Scenarios)
				}
			}
		}
	})

	t.Run("workers", func(t *testing.T) {
		serial, err := Local(fleet, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer serial.Close()
		pooled, err := Local(fleet)
		if err != nil {
			t.Fatal(err)
		}
		defer pooled.Close()
		want, _ := runToEnd(t, serial, campaign)
		got, _ := runToEnd(t, pooled, campaign)
		assertSameResult(t, want, got)
	})
}

// countingBackend is the analytical model, counting its evaluations.
type countingBackend struct {
	engine.Model
	evals *atomic.Int64
}

func (b countingBackend) Evaluate(app core.Application, cl *Cluster, alloc core.Allocation, opts engine.Options) (engine.Result, error) {
	b.evals.Add(1)
	return b.Model.Evaluate(app, cl, alloc, opts)
}

// TestLocalSweepsVectorsEveryCampaign: a Local runner's SeDs evaluate
// through a backend that need not be deterministic, so the scheduler never
// serves their performance vectors from its cache — a repeated campaign
// costs exactly as many evaluations as the first.
func TestLocalSweepsVectorsEveryCampaign(t *testing.T) {
	var evals atomic.Int64
	runner, err := Local(testFleet(3), WithBackend(countingBackend{evals: &evals}))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	campaign := NewCampaign(8, 24)
	res, _ := runToEnd(t, runner, campaign)
	first := evals.Load()
	if first <= int64(len(res.Reports)) {
		t.Fatalf("first campaign made %d evaluations for %d chunks: no vector sweep", first, len(res.Reports))
	}
	runToEnd(t, runner, campaign)
	if again := evals.Load() - first; again != first {
		t.Fatalf("repeated campaign made %d evaluations, the first %d", again, first)
	}
}

// TestCampaignDeadlineInterruptsRound: a WithDeadline that expires while a
// repartition round is in flight fails the campaign there and then, on
// both runner flavours — the round is not run to completion first.
func TestCampaignDeadlineInterruptsRound(t *testing.T) {
	ctx := context.Background()
	campaign := NewCampaign(10, 1800)
	runners := map[string]func(t *testing.T) Runner{
		"local": func(t *testing.T) Runner {
			r, err := Local(testFleet(2))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"dial": func(t *testing.T) Runner {
			fabric := startTestFabric(t, 2)
			r, err := Dial(ctx, fabric.Sched.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	for name, open := range runners {
		t.Run(name, func(t *testing.T) {
			runner := open(t)
			defer runner.Close()

			start := time.Now()
			h, err := runner.Run(ctx, campaign, WithDeadline(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Wait()
			expired := time.Since(start)
			if !errors.Is(err, ErrCampaignFailed) {
				t.Fatalf("deadline expiry resolved with %v, want ErrCampaignFailed", err)
			}
			if res != nil {
				t.Fatalf("deadline-failed campaign returned a result: %+v", res)
			}

			// The same campaign without a deadline times the round the
			// deadline must have cut short.
			start = time.Now()
			h, err = runner.Run(ctx, campaign)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
			if round := time.Since(start); expired > round/2 {
				t.Fatalf("deadline failure took %v, the whole round %v", expired, round)
			}
		})
	}
}

// waitStatus polls Info until the campaign reports status.
func waitStatus(t *testing.T, runner Runner, id uint64, status string) *CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := runner.Info(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == status {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %d stuck in %q, want %q", id, info.Status, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalPauseThenCancelIsDurable: a campaign whose Run context ends is
// paused — failed in Info, resumable in the journal — until a Cancel makes
// the stop durable: the next runner on the state dir replays it cancelled
// instead of resuming it.
func TestLocalPauseThenCancelIsDurable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	h, err := r1.Run(runCtx, NewCampaign(10, 1800))
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	cancel()
	if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("paused campaign resolved with %v, want context.Canceled", err)
	}
	waitStatus(t, r1, id, StatusFailed)
	if err := r1.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, r1, id, StatusCancelled)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ah, err := r2.Attach(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ah.Wait(); !errors.Is(err, ErrCampaignCancelled) {
		t.Fatalf("replayed campaign resolved with %v, want ErrCampaignCancelled", err)
	}
}

// TestLocalClosePausesInFlight: Close pauses every campaign in flight, as a
// daemon shutdown does — the next runner on the state dir resumes and
// finishes it.
func TestLocalClosePausesInFlight(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h, err := r1.Run(ctx, NewCampaign(10, 1800))
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrCampaignFailed) {
		t.Fatalf("campaign in flight at Close resolved with %v, want ErrCampaignFailed", err)
	}

	r2, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ah, err := r2.Attach(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ah.Wait()
	if err != nil {
		t.Fatalf("campaign paused by Close did not resume: %v", err)
	}
	total := 0
	for _, rep := range res.Reports {
		total += rep.Scenarios
	}
	if total != 10 {
		t.Fatalf("resumed campaign covered %d scenarios, want 10", total)
	}
}

// TestLocalPriorityOrdersQueue: beyond the campaigns a Local runner serves
// at once, the rest queue, and priority — not admission order — decides
// which dispatches next.
func TestLocalPriorityOrdersQueue(t *testing.T) {
	ctx := context.Background()
	runner, err := Local(testFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	var ids []uint64
	for i := 0; i < 4; i++ { // one per dispatcher
		h, err := runner.Run(ctx, NewCampaign(10, 1800))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, h.ID())
	}
	for _, id := range ids {
		waitStatus(t, runner, id, StatusRunning)
	}
	low, err := runner.Run(ctx, NewCampaign(2, 12))
	if err != nil {
		t.Fatal(err)
	}
	high, err := runner.Run(ctx, NewCampaign(2, 12), WithPriority(5))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, low.ID(), high.ID())
	defer func() {
		for _, id := range ids {
			_ = runner.Cancel(ctx, id)
		}
	}()
	for want, h := range map[int]*Handle{1: high, 2: low} {
		info, err := runner.Info(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusQueued || info.QueuePos != want {
			t.Fatalf("campaign %d (priority %d): %s at queue position %d, want queued at %d",
				info.ID, info.Priority, info.Status, info.QueuePos, want)
		}
	}
}
