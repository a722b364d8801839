package oagrid

import (
	"fmt"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// localQueueCap bounds a Local runner's admission queue. An embedder's own
// submissions are the only traffic, so the bound sits far above any
// realistic concurrency: Local never rejects a campaign for a full queue.
const localQueueCap = 1 << 16

// localCampaignTimeout is a Local campaign's default bound — none worth
// the name. A Local campaign ends at its own WithDeadline, its submitter's
// context, Cancel or Close, not at a daemon-style timeout.
const localCampaignTimeout = 100 * 365 * 24 * time.Hour

// Local builds a Runner over the in-process engine and the given clusters:
// a grid scheduler with no listener whose SeDs are in-process handlers, one
// per cluster, called directly — no socket is opened and nothing is
// dialled. Every campaign therefore runs the daemon's own state machine
// (admission, weighted-fair queueing, the Figure-9 rounds, cancel, journal,
// recovery, retention), and a Local run of a campaign is bit-identical to
// a Dial run against a daemon serving the same cluster profiles, at
// default options. Cluster names must be unique.
//
// The scheduler serves four campaigns at once; beyond that, campaigns
// queue and WithPriority orders them. Cancelling a campaign's Run context
// pauses it: the in-flight evaluation aborts, the handle resolves with the
// context's error, Info reports it failed, and a durable runner's journal
// keeps it resumable (a later Cancel makes the stop final). WithDeadline
// instead fails the campaign terminally, interrupting its running round.
//
// With WithStateDir, Local replays the journal found there first: terminal
// campaigns come back attachable under their original IDs with their full
// event history (a cancelled campaign stays cancelled), and non-terminal
// campaigns (a previous process died, paused or closed mid-run) are
// re-admitted, re-running only the scenarios without a completed chunk.
func Local(clusters []*Cluster, opts ...RunnerOption) (Runner, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("%w: Local needs at least one cluster", ErrInvalidConfig)
	}
	cfg := newRunnerConfig(opts)
	if _, err := core.ByName(cfg.heuristic); err != nil {
		return nil, err
	}
	seds := make([]*diet.Handler, len(clusters))
	names := make(map[string]bool, len(clusters))
	for i, cl := range clusters {
		h, err := diet.NewHandler(cl, cfg.backend, cfg.engineOptions(), cfg.workers)
		if err != nil {
			return nil, err
		}
		if names[cl.Name] {
			return nil, fmt.Errorf("%w: Local got two clusters named %q", ErrInvalidConfig, cl.Name)
		}
		names[cl.Name] = true
		seds[i] = h
	}
	sched, err := grid.Start(grid.Config{
		QueueCap:        localQueueCap,
		CampaignTimeout: localCampaignTimeout,
		StateDir:        cfg.stateDir,
	}, seds...)
	if err != nil {
		return nil, err
	}
	return &campaignRunner{client: sched, cfg: cfg, close: sched.Close}, nil
}
