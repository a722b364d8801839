package oagrid

import (
	"context"
	"strings"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// campaignClient is what a runner drives campaigns through: a grid
// scheduler's client surface. *grid.Client serves it over the wire (Dial),
// *grid.Scheduler in process (Local), with the same typed errors.
type campaignClient interface {
	RunContext(ctx context.Context, app core.Application, heuristic string, meta grid.SubmitMeta, onAdmit func(uint64), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error)
	AttachContext(ctx context.Context, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error)
	CancelContext(ctx context.Context, id uint64) (string, error)
	ListCampaignsContext(ctx context.Context, filter *diet.ListCampaignsRequest) ([]diet.CampaignInfo, error)
	InfoContext(ctx context.Context, id uint64) (*diet.CampaignInfo, error)
}

// campaignRunner is the one Runner: it maps a grid scheduler's client
// surface onto handles and typed events, whichever side of a wire the
// scheduler is on.
type campaignRunner struct {
	client campaignClient
	cfg    runnerConfig
	// close releases what the runner owns: a Local runner's in-process
	// scheduler; nil for Dial.
	close func() error
}

// Dial builds a Runner over a live grid scheduler daemon (cmd/oarun
// -daemon). It verifies a daemon answers before returning — ctx bounds
// that probe. Each campaign then streams on its own connection: admission
// verdict, per-campaign progress frames, and the final result, with the
// frame deadline refreshed on every frame so campaigns may outlive any
// single timeout. At default options a dialed campaign's Result is
// bit-identical to a Local run over the same cluster profiles.
//
// addr may list several comma-separated addresses ("a:7714,b:7714,c:7714")
// when the daemons form a sharded ring (oarun -daemon -ring): the first is
// the primary, the rest are fallbacks tried when it is unreachable, and
// ownership redirects from any member are followed and cached so
// steady-state traffic goes straight to the shard that owns each campaign.
// A single address behaves exactly as before.
func Dial(ctx context.Context, addr string, opts ...RunnerOption) (Runner, error) {
	cfg := newRunnerConfig(opts)
	if _, err := core.ByName(cfg.heuristic); err != nil {
		return nil, err
	}
	primary, fallbacks := splitAddrs(addr)
	client := &grid.Client{Addr: primary, Addrs: fallbacks, Timeout: cfg.timeout}
	if _, err := client.StatsContext(ctx); err != nil {
		return nil, err
	}
	return &campaignRunner{client: client, cfg: cfg}, nil
}

// splitAddrs parses Dial's address argument: a comma-separated member list
// becomes the primary plus fallbacks; whitespace around entries is ignored
// and empty entries dropped.
func splitAddrs(addr string) (string, []string) {
	parts := strings.Split(addr, ",")
	all := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			all = append(all, p)
		}
	}
	if len(all) == 0 {
		return addr, nil
	}
	return all[0], all[1:]
}

// Run implements Runner. Submit options travel with the campaign to the
// scheduler (on the wire for Dial): priority orders its admission queue,
// labels tag the campaign for List, a deadline overrides its campaign
// timeout. Run returns once the scheduler's admission verdict is in, so an
// admitted campaign's handle already carries its ID.
func (r *campaignRunner) Run(ctx context.Context, c Campaign, opts ...SubmitOption) (*Handle, error) {
	app := core.Application(c.Experiment)
	if err := app.Validate(); err != nil {
		return nil, err
	}
	sub := newSubmitConfig(opts)
	name := sub.heuristic
	if name == "" {
		name = c.Heuristic
	}
	if name == "" {
		name = r.cfg.heuristic
	}
	if _, err := core.ByName(name); err != nil {
		return nil, err
	}
	handle := newHandle(app.Scenarios)
	meta := grid.SubmitMeta{Priority: sub.priority, Labels: sub.labels, Deadline: sub.deadline}
	admitted := make(chan struct{})
	go r.run(ctx, handle, app, name, meta, admitted)
	select {
	case <-admitted:
	case <-handle.done: // rejected, or failed before the verdict
	}
	return handle, nil
}

// Cancel implements Runner: the scheduler journals the cancellation before
// the verdict returns, so it survives any restart. An unknown ID is
// ErrUnknownCampaign; a campaign that finished first is a no-op.
func (r *campaignRunner) Cancel(ctx context.Context, id uint64) error {
	_, err := r.client.CancelContext(ctx, id)
	return err
}

// List implements Runner: the scheduler's campaign table in admission order.
func (r *campaignRunner) List(ctx context.Context, filter ListFilter) ([]CampaignInfo, error) {
	infos, err := r.client.ListCampaignsContext(ctx, &diet.ListCampaignsRequest{
		Status: filter.Status,
		Labels: filter.Labels,
	})
	if err != nil {
		return nil, err
	}
	out := make([]CampaignInfo, len(infos))
	for i := range infos {
		out[i] = infoFromWire(&infos[i])
	}
	return out, nil
}

// Info implements Runner.
func (r *campaignRunner) Info(ctx context.Context, id uint64) (*CampaignInfo, error) {
	wi, err := r.client.InfoContext(ctx, id)
	if err != nil {
		return nil, err
	}
	info := infoFromWire(wi)
	return &info, nil
}

// infoFromWire maps the wire control-plane snapshot onto the public shape.
func infoFromWire(wi *diet.CampaignInfo) CampaignInfo {
	return CampaignInfo{
		ID:        wi.ID,
		Status:    wi.Status,
		Priority:  wi.Priority,
		Labels:    wi.Labels,
		Heuristic: wi.Heuristic,
		Scenarios: wi.Scenarios,
		Months:    wi.Months,
		Done:      wi.Done,
		Total:     wi.Total,
		Rounds:    wi.Rounds,
		Requeues:  wi.Requeues,
		Makespan:  wi.Makespan,
		Err:       wi.Err,
		Tenant:    wi.Tenant,
		QueuePos:  wi.QueuePos,
		WaitMs:    wi.WaitMs,
	}
}

// Attach implements Runner: it reconnects to a scheduler-side campaign by
// ID (over a KindAttach stream for Dial). The handle replays the
// campaign's full progress history — including everything published
// before a network cut or a restart on a state dir — then follows it live
// to the result. Attach blocks until the attach verdict (for Dial one dial
// plus one frame, bounded by WithTimeout) or the failure that precedes it:
// the verdict carries the campaign shape that sizes event-subscription
// buffers, so a handle returned earlier could hand Events() an undersized
// channel and strand an abandoning consumer's delivery goroutine.
func (r *campaignRunner) Attach(ctx context.Context, id uint64) (*Handle, error) {
	handle := newHandle(0) // shape arrives with the attach verdict
	ready := make(chan struct{})
	go r.attach(ctx, handle, id, ready)
	select {
	case <-ready: // verdict arrived; scenarios are set
	case <-handle.done: // failed before the verdict (dial error, unknown ID)
	}
	return handle, nil
}

// Close implements Runner. A Dial runner's campaigns dial their own
// connections, so it has nothing to release; a Local runner shuts its
// scheduler down, which pauses every campaign still queued or running (a
// running one after its current round) — exactly a daemon shutdown.
func (r *campaignRunner) Close() error {
	if r.close == nil {
		return nil
	}
	return r.close()
}

func (r *campaignRunner) run(ctx context.Context, handle *Handle, app core.Application, heuristic string, meta grid.SubmitMeta, admitted chan<- struct{}) {
	res, err := r.client.RunContext(ctx, app, heuristic, meta,
		func(id uint64) {
			handle.setID(id)
			handle.publish(EventAdmitted{ID: id})
			close(admitted)
		},
		func(u *diet.ProgressUpdate) {
			for _, ev := range progressEvents(u) {
				handle.publish(ev)
			}
		})
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		handle.finish(nil, err)
		return
	}
	handle.finish(fromWire(res), nil)
}

func (r *campaignRunner) attach(ctx context.Context, handle *Handle, id uint64, ready chan<- struct{}) {
	res, err := r.client.AttachContext(ctx, id,
		func(v *diet.AttachResponse) {
			handle.setID(v.ID)
			handle.setScenarios(v.Total)
			handle.publish(EventAdmitted{ID: v.ID})
			close(ready)
		},
		func(u *diet.ProgressUpdate) {
			for _, ev := range progressEvents(u) {
				handle.publish(ev)
			}
		})
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		handle.finish(nil, err)
		return
	}
	handle.finish(fromWire(res), nil)
}

// progressEvents maps one wire progress frame onto the typed event stream.
func progressEvents(u *diet.ProgressUpdate) []Event {
	switch u.Stage {
	case diet.StagePlanned:
		shares := make([]PlannedShare, len(u.Planned))
		for i, p := range u.Planned {
			shares[i] = PlannedShare{Cluster: p.Cluster, Scenarios: p.Scenarios}
		}
		return []Event{EventPlanned{Shares: shares}}
	case diet.StageChunk:
		if u.Chunk == nil {
			return nil
		}
		return []Event{
			EventChunkDone{
				Report: reportFromWire(*u.Chunk),
				Done:   u.Done, Total: u.Total,
			},
			EventProgress{Done: u.Done, Total: u.Total},
		}
	case diet.StageRequeue:
		return []Event{EventProgress{Done: u.Done, Total: u.Total, Requeued: u.Requeued}}
	default:
		return nil
	}
}

// reportFromWire maps one chunk report onto the public shape. The full
// backend Result reaches only an in-process caller — it travels neither the
// wire nor the journal — so it is nil everywhere else.
func reportFromWire(rep diet.ExecResponse) ClusterReport {
	return ClusterReport{
		Cluster:    rep.Cluster,
		Scenarios:  rep.Scenarios,
		Makespan:   rep.Makespan,
		Allocation: rep.Allocation,
		Round:      rep.Round,
		Result:     rep.Result,
	}
}

// fromWire maps the scheduler's campaign result onto the public shape.
func fromWire(res *diet.CampaignResult) *CampaignResult {
	out := &CampaignResult{Makespan: res.Makespan, Requeues: res.Requeues}
	for _, rep := range res.Reports {
		out.Reports = append(out.Reports, reportFromWire(rep))
	}
	return out
}
