package grid

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// frameTimeout bounds one decode or encode on a scheduler connection.
const frameTimeout = 5 * time.Second

// acceptLoop serves connections until the listener closes. The scheduler
// brings its own loop (instead of diet.Serve) because submit-wait
// connections stream multiple response frames.
func (s *Scheduler) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// binSender writes response frames on one connection. sendProgress writes
// a published frame's cached encoding instead of re-encoding it.
type binSender struct {
	conn net.Conn
	w    net.Conn // counted writer (CountConn over conn)
	ver  int
}

func (b *binSender) send(resp *diet.Response) error {
	resp.Version = b.ver
	_ = b.conn.SetDeadline(time.Now().Add(frameTimeout))
	return diet.WriteResponseFrame(b.w, resp)
}

func (b *binSender) sendProgress(f *progressFrame) error {
	enc, err := f.encoded()
	if err != nil {
		return err
	}
	_ = b.conn.SetDeadline(time.Now().Add(frameTimeout))
	return diet.WriteRawFrame(b.w, enc)
}

// serveConn reads one request frame and serves it; a connection that does
// not open with a well-formed frame is dropped. MaxProtocol caps what the
// scheduler negotiates.
func (s *Scheduler) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(frameTimeout))
	cc := diet.CountConn(conn)
	dec := diet.GetFrameDecoder(false)
	defer diet.PutFrameDecoder(dec)
	req, err := dec.ReadRequest(cc)
	if err != nil {
		return
	}
	ver := s.negotiate(req.Version)
	s.dispatch(&binSender{conn: conn, w: cc, ver: ver}, ver, req)
}

// negotiate resolves a connection's effective version under the daemon's
// version cap.
func (s *Scheduler) negotiate(peer int) int {
	ver := diet.NegotiateVersion(peer)
	if max := s.maxVersion(); ver > max {
		ver = max
	}
	return ver
}

// maxVersion is the highest protocol version this daemon speaks
// (Config.MaxProtocol; 0 means the build's newest).
func (s *Scheduler) maxVersion() int {
	if s.cfg.MaxProtocol > 0 {
		return s.cfg.MaxProtocol
	}
	return diet.ProtocolVersion
}

// dispatch routes one decoded request to the streaming or one-shot path.
// The ring kinds come first — they are daemon-to-daemon and never route —
// then ring ownership gets a chance to redirect, forward, or fan the request
// out before the local paths serve it.
func (s *Scheduler) dispatch(send *binSender, ver int, req *diet.Request) {
	switch req.Kind {
	case diet.KindRingPing:
		_ = send.send(s.serveRingPing(ver))
		return
	case diet.KindForward:
		_ = send.send(s.serveForward(ver, req.Forward))
		return
	case diet.KindSegment:
		_ = send.send(s.serveSegment(ver, req.Segment))
		return
	}
	if sm := s.shardManager(); sm != nil && s.routeRing(sm, send, ver, req) {
		return
	}
	switch req.Kind {
	case diet.KindSubmit:
		s.serveSubmit(send, req.Submit)
	case diet.KindAttach:
		s.serveAttach(send, req.Attach)
	default:
		resp := s.handle(req)
		_ = send.send(resp)
	}
}

// serveSubmit answers a campaign submission. With Wait set the connection
// streams: the admission verdict goes out immediately; with Progress set,
// per-campaign progress frames follow; the campaign result
// closes the stream when the run completes. Every frame write refreshes the
// connection deadline, so a stream stays alive exactly as long as its
// campaign — and a client gone mid-stream fails a frame write, which
// releases this goroutine without touching the dispatcher that runs the
// campaign.
func (s *Scheduler) serveSubmit(send *binSender, req *diet.SubmitRequest) {
	if req == nil {
		_ = send.send(&diet.Response{Err: "submit: empty payload"})
		return
	}
	c, verdict, err := s.admit(req, nil)
	if err != nil {
		// Malformed campaign: a protocol error, not an admission verdict —
		// retrying it can never succeed.
		_ = send.send(&diet.Response{Err: err.Error()})
		return
	}
	// Subscribe before acknowledging admission: the dispatcher may pop the
	// campaign immediately, and a subscription taken later would race the
	// first planned frame (the history replay makes even that race benign,
	// but late frames would reorder around the verdict).
	var sub chan *progressFrame
	if c != nil && req.Wait && req.Progress {
		sub = c.subscribe()
		defer c.unsubscribe(sub)
	}
	if err := send.send(&diet.Response{Submit: verdict}); err != nil {
		return
	}
	if c == nil || !req.Wait {
		return
	}
	s.streamCampaign(send, c, sub)
}

// serveAttach reconnects a client to a campaign by ID: the attach verdict
// goes out first, then — with Progress set — the campaign's
// full replayed history followed by live frames, and finally the result.
// Attaching to a finished campaign replays its history and closes with the
// stored result immediately.
func (s *Scheduler) serveAttach(send *binSender, req *diet.AttachRequest) {
	if req == nil {
		_ = send.send(&diet.Response{Err: "attach: empty payload"})
		return
	}
	c := s.lookup(req.ID)
	if c == nil {
		_ = send.send(&diet.Response{Attach: &diet.AttachResponse{ID: req.ID}})
		return
	}
	// Subscribe before acknowledging, for the same reason serveSubmit does:
	// the replay inside subscribe() pins the history point the live stream
	// continues from.
	var sub chan *progressFrame
	if req.Progress {
		sub = c.subscribe()
		defer c.unsubscribe(sub)
	}
	if err := send.send(&diet.Response{Attach: c.attachVerdict()}); err != nil {
		return
	}
	s.streamCampaign(send, c, sub)
}

// streamCampaign pumps a campaign's progress frames into send until the
// campaign ends, then closes the stream with the result. sub may be nil
// (a wait without progress): the loop then only waits for completion.
func (s *Scheduler) streamCampaign(send *binSender, c *campaign, sub chan *progressFrame) {
	for {
		select {
		case f := <-sub: // nil sub: never ready, plain wait
			if err := send.sendProgress(f); err != nil {
				return
			}
		case <-c.done:
			// Drain progress frames published before completion so the
			// stream is gapless, then close with the result.
			for {
				select {
				case f := <-sub:
					if err := send.sendProgress(f); err != nil {
						return
					}
					continue
				default:
				}
				break
			}
			_ = send.send(&diet.Response{Result: c.snapshot()})
			return
		case <-s.done:
			_ = send.send(&diet.Response{Err: errShutdown.Error()})
			return
		}
	}
}

// handle serves the one-shot request kinds. Register and list keep the
// passive MasterAgent contract, so legacy diet clients work against a live
// scheduler unchanged.
func (s *Scheduler) handle(req *diet.Request) *diet.Response {
	switch req.Kind {
	case diet.KindRegister:
		if req.Register == nil {
			return &diet.Response{Err: "register: empty payload"}
		}
		// The legacy register kind predates speed and drain: reference
		// factor, not draining.
		s.register(diet.SeDInfo(*req.Register), 0, 1.0, false)
		return &diet.Response{Register: &diet.RegisterResponse{Accepted: true}}
	case diet.KindHeartbeat:
		if req.Heartbeat == nil {
			return &diet.Response{Err: "heartbeat: empty payload"}
		}
		hb := req.Heartbeat
		s.register(diet.SeDInfo{Cluster: hb.Cluster, Addr: hb.Addr, Procs: hb.Procs}, hb.InFlight, hb.Speed, hb.Draining)
		return &diet.Response{Heartbeat: &diet.HeartbeatResponse{OK: true}}
	case diet.KindList:
		return &diet.Response{List: &diet.ListResponse{SeDs: s.listSeDs()}}
	case diet.KindResult:
		if req.Result == nil {
			return &diet.Response{Err: "result: empty payload"}
		}
		c := s.lookup(req.Result.ID)
		if c == nil {
			return &diet.Response{Err: fmt.Sprintf("grid: unknown campaign %d", req.Result.ID)}
		}
		return &diet.Response{Result: c.snapshot()}
	case diet.KindStats:
		stats := s.Stats()
		return &diet.Response{Stats: &stats}
	case diet.KindCancel:
		if req.Cancel == nil {
			return &diet.Response{Err: "cancel: empty payload"}
		}
		found, status := s.Cancel(req.Cancel.ID)
		return &diet.Response{Cancel: &diet.CancelResponse{ID: req.Cancel.ID, Found: found, Status: status}}
	case diet.KindInfo:
		if req.Info == nil {
			return &diet.Response{Err: "info: empty payload"}
		}
		return &diet.Response{Info: s.CampaignInfo(req.Info.ID)}
	case diet.KindListCampaigns:
		if req.ListCampaigns == nil {
			return &diet.Response{Err: "list-campaigns: empty payload"}
		}
		return &diet.Response{ListCampaigns: &diet.ListCampaignsResponse{Campaigns: s.ListCampaigns(req.ListCampaigns)}}
	default:
		return &diet.Response{Err: fmt.Sprintf("grid: scheduler: unsupported request %q", req.Kind)}
	}
}

// listSeDs exposes the live daemons in the MasterAgent's list format.
func (s *Scheduler) listSeDs() []diet.SeDInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]diet.SeDInfo, 0, len(s.seds))
	for _, st := range s.seds {
		if st.alive {
			out = append(out, st.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cluster < out[j].Cluster })
	return out
}

// ---- in-process client ------------------------------------------------------
//
// The methods below serve Client's method set in process, with Client's
// typed errors: an embedder (oagrid.Local) drives the scheduler exactly as
// a Dial runner drives a daemon, minus the wire.

// RunContext is Client.RunContext served in process: the campaign is
// admitted directly, its progress frames go to onProgress, and the result
// is its terminal snapshot. Admission does not wait on ctx. Once admitted,
// ctx is the campaign's submitter: when it ends, the campaign pauses — its
// in-flight evaluation aborts, it reports failed, and the journal keeps it
// non-terminal, so a scheduler reopened on the state dir resumes it (a
// later Cancel makes the stop durable) — and RunContext returns ctx's
// error.
func (s *Scheduler) RunContext(ctx context.Context, app core.Application, heuristic string, meta SubmitMeta, onAdmit func(uint64), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	c, verdict, err := s.admit(&diet.SubmitRequest{
		Scenarios: app.Scenarios,
		Months:    app.Months,
		Heuristic: heuristic,
		Priority:  meta.Priority,
		Labels:    meta.Labels,
		Deadline:  meta.Deadline,
	}, ctx)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, rejectionError(verdict)
	}
	sub := c.subscribe()
	defer c.unsubscribe(sub)
	if onAdmit != nil {
		onAdmit(c.id)
	}
	return s.follow(ctx, c, sub, onProgress)
}

// AttachContext is Client.AttachContext served in process. ctx bounds only
// this attachment, never the campaign.
func (s *Scheduler) AttachContext(ctx context.Context, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	c := s.lookup(id)
	if c == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	sub := c.subscribe()
	defer c.unsubscribe(sub)
	if onAttach != nil {
		onAttach(c.attachVerdict())
	}
	return s.follow(ctx, c, sub, onProgress)
}

// follow is streamCampaign for an in-process caller: it delivers the
// campaign's progress frames until the campaign ends, then returns its
// result.
func (s *Scheduler) follow(ctx context.Context, c *campaign, sub chan *progressFrame, onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	deliver := func(f *progressFrame) {
		if onProgress != nil {
			onProgress(&f.u)
		}
	}
	for {
		select {
		case f := <-sub:
			deliver(f)
		case <-c.done:
			// Drain what was published before completion, so the stream is
			// gapless.
			for {
				select {
				case f := <-sub:
					deliver(f)
					continue
				default:
				}
				break
			}
			return resultError(c.snapshot())
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-s.done:
			return nil, fmt.Errorf("%w: campaign %d: %v", ErrCampaignFailed, c.id, errShutdown)
		}
	}
}

// CancelContext is Client.CancelContext served in process.
func (s *Scheduler) CancelContext(_ context.Context, id uint64) (string, error) {
	found, status := s.Cancel(id)
	if !found {
		return "", fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	return status, nil
}

// InfoContext is Client.InfoContext served in process.
func (s *Scheduler) InfoContext(_ context.Context, id uint64) (*diet.CampaignInfo, error) {
	info := s.CampaignInfo(id)
	if !info.Found {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	return info, nil
}

// ListCampaignsContext is Client.ListCampaignsContext served in process.
func (s *Scheduler) ListCampaignsContext(_ context.Context, filter *diet.ListCampaignsRequest) ([]diet.CampaignInfo, error) {
	return s.ListCampaigns(filter), nil
}
