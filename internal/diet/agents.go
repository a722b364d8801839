package diet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// MasterAgent is the registry the client queries for server daemons, the MA
// of the DIET hierarchy (the LA layer of real DIET is collapsed into it).
type MasterAgent struct {
	sv *server

	mu   sync.Mutex
	seds []SeDInfo
}

// StartMasterAgent listens on addr ("127.0.0.1:0" for an ephemeral port).
func StartMasterAgent(addr string) (*MasterAgent, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diet: master agent listen: %w", err)
	}
	ma := &MasterAgent{}
	ma.sv = newServer(ln, ma.handle)
	go ma.sv.run()
	return ma, nil
}

// Addr returns the agent's listen address.
func (ma *MasterAgent) Addr() string { return ma.sv.ln.Addr().String() }

// Close stops the agent: the listener and every open connection close.
func (ma *MasterAgent) Close() error { return ma.sv.close() }

// SeDs returns a snapshot of the registered daemons. The slice is a copy
// taken under the mutex: callers may range over it while other SeDs keep
// registering concurrently without racing the registry's internal slice.
func (ma *MasterAgent) SeDs() []SeDInfo {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	return append([]SeDInfo(nil), ma.seds...)
}

func (ma *MasterAgent) handle(req *Request) *Response {
	switch req.Kind {
	case KindRegister:
		if req.Register == nil {
			return &Response{Err: "register: empty payload"}
		}
		ma.mu.Lock()
		replaced := false
		for i := range ma.seds {
			if ma.seds[i].Cluster == req.Register.Cluster {
				ma.seds[i] = SeDInfo(*req.Register)
				replaced = true
				break
			}
		}
		if !replaced {
			ma.seds = append(ma.seds, SeDInfo(*req.Register))
		}
		ma.mu.Unlock()
		return &Response{Register: &RegisterResponse{Accepted: true}}
	case KindList:
		return &Response{List: &ListResponse{SeDs: ma.SeDs()}}
	default:
		return &Response{Err: fmt.Sprintf("master agent: unsupported request %q", req.Kind)}
	}
}

// Handler is the compute half of a SeD, without a listener: it answers one
// cluster's performance-vector requests (protocol step 2) and execution
// requests (step 6) through an engine backend. A TCP SeD serves one behind
// its listener; the grid scheduler calls an in-process one directly.
type Handler struct {
	cluster *platform.Cluster
	ev      engine.Evaluator
	opts    engine.Options
	workers int
	// speed is the daemon's relative speed factor: 1.0 is the reference,
	// 0.5 advertises every performance-vector entry doubled so the
	// repartition hands this daemon proportionally smaller chunks.
	// Immutable after construction. Execution itself stays on the
	// cluster's base timing — the factor shifts placement, never a chunk's
	// reported makespan, which keeps results bit-identical to serial replay.
	speed float64

	inFlight atomic.Int64 // gauge of requests currently being served
}

// NewHandler builds the request handler of one cluster at the reference
// speed: ev evaluates every plan (nil is the event-driven executor), opts
// configure every evaluation, and workers bounds the performance-vector
// sweep pool (0 or less uses GOMAXPROCS; vectors are bit-identical
// whatever the count).
func NewHandler(cluster *platform.Cluster, ev engine.Evaluator, opts engine.Options, workers int) (*Handler, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if ev == nil {
		ev = engine.Default()
	}
	return &Handler{cluster: cluster, ev: ev, opts: opts, workers: workers, speed: 1.0}, nil
}

// Cluster returns the served cluster.
func (h *Handler) Cluster() *platform.Cluster { return h.cluster }

// InFlight reports how many requests the handler is serving right now.
func (h *Handler) InFlight() int { return int(h.inFlight.Load()) }

// Speed reports the handler's relative speed factor.
func (h *Handler) Speed() float64 { return h.speed }

// Call answers one perf or exec request by direct call. ctx aborts the
// evaluation cooperatively: a performance-vector sweep stops between its
// jobs, an execution is not started once ctx is done. A failed request
// returns the error a wire peer receives as the response's Err.
func (h *Handler) Call(ctx context.Context, req *Request) (*Response, error) {
	h.inFlight.Add(1)
	defer h.inFlight.Add(-1)
	switch req.Kind {
	case KindPerf:
		return h.perf(ctx, req.Perf)
	case KindExec:
		return h.execute(ctx, req.Exec)
	default:
		return nil, fmt.Errorf("SeD %s: unsupported request %q", h.cluster.Name, req.Kind)
	}
}

// serve is Call as a wire agent's handler: a failure travels as the
// response's Err.
func (h *Handler) serve(req *Request) *Response {
	resp, err := h.Call(context.Background(), req)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return resp
}

func (h *Handler) perf(ctx context.Context, req *PerfRequest) (*Response, error) {
	if req == nil {
		return nil, errors.New("perf: empty payload")
	}
	heur, err := core.ByName(req.Heuristic)
	if err != nil {
		return nil, err
	}
	// One perf request is NS plan+evaluate jobs (k = 1..NS); answer it as a
	// single batched engine sweep so the plan cache and memoized timing are
	// shared across the k values. The sweep is bit-identical to the serial
	// loop it replaced, whatever the worker count.
	app := core.Application{Scenarios: req.Scenarios, Months: req.Months}
	vecs, err := engine.PerformanceVectorsContext(ctx, h.ev, app, []*platform.Cluster{h.cluster}, heur, h.opts, h.workers)
	if err != nil {
		return nil, err
	}
	vec := vecs[0]
	// A non-reference speed factor scales the advertised makespans (half
	// speed doubles them) so the repartition hands this daemon a
	// proportionally smaller share. Only the advertisement is scaled:
	// execution runs on the base timing, so chunk reports stay bit-identical
	// to their serial replay whatever the fleet's speed mix.
	if h.speed != 1.0 {
		for i, v := range vec {
			vec[i] = v / h.speed
		}
	}
	return &Response{Perf: &PerfResponse{
		Cluster: h.cluster.Name,
		Procs:   h.cluster.Procs,
		Vector:  vec,
	}}, nil
}

func (h *Handler) execute(ctx context.Context, req *ExecRequest) (*Response, error) {
	if req == nil {
		return nil, errors.New("exec: empty payload")
	}
	if len(req.ScenarioIDs) == 0 {
		return &Response{Exec: &ExecResponse{Cluster: h.cluster.Name}}, nil
	}
	heur, err := core.ByName(req.Heuristic)
	if err != nil {
		return nil, err
	}
	app := core.Application{Scenarios: len(req.ScenarioIDs), Months: req.Months}
	alloc, err := heur.Plan(app, h.cluster.Timing, h.cluster.Procs)
	if err != nil {
		return nil, err
	}
	res, err := engine.EvaluateContext(ctx, h.ev, app, h.cluster, alloc, h.opts)
	if err != nil {
		return nil, err
	}
	return &Response{Exec: &ExecResponse{
		Cluster:    h.cluster.Name,
		Makespan:   res.Makespan,
		Allocation: alloc,
		Scenarios:  len(req.ScenarioIDs),
		Result:     &res,
	}}, nil
}

// SeD is the per-cluster server daemon: a Handler on the event-driven
// executor behind a TCP listener, plus the heartbeat loop that keeps it in
// a scheduler's pool.
type SeD struct {
	*Handler
	sv *server

	// draining is nonzero once Drain() ran: the daemon advertises the flag
	// on every beat so the scheduler stops placing new chunks on it.
	draining int32

	hbMu   sync.Mutex
	hbStop chan struct{}
	// hbAddr remembers the scheduler a heartbeat loop beacons to, so
	// Drain() can push an immediate flagged beat instead of waiting out the
	// ticker interval.
	hbAddr string
}

// StartSeD listens on addr and serves the cluster at the reference speed.
func StartSeD(addr string, cluster *platform.Cluster, opts exec.Options) (*SeD, error) {
	return StartSeDSpeed(addr, cluster, opts, 1.0)
}

// StartSeDSpeed is StartSeD with an explicit relative speed factor; values
// <= 0 read as 1.0 (the reference speed).
func StartSeDSpeed(addr string, cluster *platform.Cluster, opts exec.Options, speed float64) (*SeD, error) {
	h, err := NewHandler(cluster, engine.DES{}, engine.Options{Exec: opts}, 0)
	if err != nil {
		return nil, err
	}
	if speed > 0 {
		h.speed = speed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diet: SeD %s listen: %w", cluster.Name, err)
	}
	s := &SeD{Handler: h, sv: newServer(ln, h.serve)}
	go s.sv.run()
	return s, nil
}

// Addr returns the daemon's listen address.
func (s *SeD) Addr() string { return s.sv.ln.Addr().String() }

// Close stops the daemon and its heartbeat loop. Every connection it is
// serving closes too, so a closed daemon answers no further request, not
// even on a connection a scheduler kept open.
func (s *SeD) Close() error {
	s.StopHeartbeats()
	return s.sv.close()
}

// Draining reports whether Drain() has run.
func (s *SeD) Draining() bool { return atomic.LoadInt32(&s.draining) != 0 }

// Drain flips the daemon into graceful-drain mode: every subsequent
// heartbeat carries the Draining flag, so the scheduler stops placing new
// chunks while in-flight work finishes and banks. One flagged beat goes out
// immediately — a scale-down must not wait out the ticker interval to take
// effect. The daemon keeps serving until Close.
func (s *SeD) Drain() {
	atomic.StoreInt32(&s.draining, 1)
	s.hbMu.Lock()
	addr := s.hbAddr
	s.hbMu.Unlock()
	if addr != "" {
		s.beat(addr)
	}
}

// StartHeartbeats begins beaconing liveness to the scheduler at addr every
// interval. A beat carries the registration payload, so the first one — and
// any beat after an eviction — (re)registers the daemon. Successive calls
// replace the previous loop.
func (s *SeD) StartHeartbeats(schedAddr string, every time.Duration) {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	s.hbAddr = schedAddr
	if s.hbStop != nil {
		close(s.hbStop)
	}
	stop := make(chan struct{})
	s.hbStop = stop
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.beat(schedAddr)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
}

// StopHeartbeats halts the heartbeat loop, simulating a silent daemon death
// for the scheduler's eviction logic (also called by Close).
func (s *SeD) StopHeartbeats() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbStop = nil
	}
}

// beat sends one heartbeat; delivery is best-effort, the scheduler's
// deadline eviction handles sustained silence.
func (s *SeD) beat(schedAddr string) {
	_, _ = roundTrip(schedAddr, &Request{Kind: KindHeartbeat, Heartbeat: &HeartbeatRequest{
		Cluster:  s.cluster.Name,
		Addr:     s.Addr(),
		Procs:    s.cluster.Procs,
		InFlight: s.InFlight(),
		Speed:    s.speed,
		Draining: s.Draining(),
	}})
}

// RegisterWith announces the daemon to a master agent.
func (s *SeD) RegisterWith(maAddr string) error {
	resp, err := roundTrip(maAddr, &Request{Kind: KindRegister, Register: &RegisterRequest{
		Cluster: s.cluster.Name,
		Addr:    s.Addr(),
		Procs:   s.cluster.Procs,
	}})
	if err != nil {
		return err
	}
	if resp.Register == nil || !resp.Register.Accepted {
		return fmt.Errorf("diet: master agent rejected registration of %s", s.cluster.Name)
	}
	return nil
}

// Client drives the six-step protocol against a master agent.
type Client struct {
	MAAddr string
}

// SubmitResult reports one full protocol run.
type SubmitResult struct {
	// Vectors maps cluster name to its performance vector (steps 2–3).
	Vectors map[string][]float64
	// Repartition is the Algorithm-1 outcome (step 4), with Counts in the
	// order of Clusters.
	Repartition core.RepartitionResult
	// Clusters lists cluster names in the order the repartition indexes them.
	Clusters []string
	// Reports holds each cluster's execution answer (step 6).
	Reports []ExecResponse
	// Makespan is the global result: the slowest cluster's makespan.
	Makespan float64
}

// Submit runs the whole Figure-9 protocol for one experiment.
func (c *Client) Submit(app core.Application, heuristic string) (*SubmitResult, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	// Discover the clusters.
	resp, err := roundTrip(c.MAAddr, &Request{Kind: KindList, List: &ListRequest{}})
	if err != nil {
		return nil, err
	}
	if resp.List == nil || len(resp.List.SeDs) == 0 {
		return nil, fmt.Errorf("diet: no SeD registered at %s", c.MAAddr)
	}
	seds := resp.List.SeDs

	// Steps 1–3: gather performance vectors concurrently.
	type vecOrErr struct {
		i   int
		vec []float64
		err error
	}
	ch := make(chan vecOrErr, len(seds))
	for i, sed := range seds {
		go func(i int, sed SeDInfo) {
			r, err := roundTrip(sed.Addr, &Request{Kind: KindPerf, Perf: &PerfRequest{
				Scenarios: app.Scenarios,
				Months:    app.Months,
				Heuristic: heuristic,
			}})
			if err != nil {
				ch <- vecOrErr{i: i, err: err}
				return
			}
			if r.Perf == nil {
				ch <- vecOrErr{i: i, err: fmt.Errorf("diet: SeD %s returned no vector", sed.Cluster)}
				return
			}
			ch <- vecOrErr{i: i, vec: r.Perf.Vector}
		}(i, sed)
	}
	perf := make([][]float64, len(seds))
	for range seds {
		v := <-ch
		if v.err != nil {
			return nil, v.err
		}
		perf[v.i] = v.vec
	}

	// Step 4: the repartition.
	rep, err := core.Repartition(perf)
	if err != nil {
		return nil, err
	}

	// Step 5–6: dispatch each cluster's share and gather reports.
	out := &SubmitResult{
		Vectors:     make(map[string][]float64, len(seds)),
		Repartition: rep,
	}
	for i, sed := range seds {
		out.Vectors[sed.Cluster] = perf[i]
		out.Clusters = append(out.Clusters, sed.Cluster)
	}
	// Scenario IDs per cluster, in assignment order.
	ids := make([][]int, len(seds))
	for scenario, cl := range rep.Assignment {
		ids[cl] = append(ids[cl], scenario)
	}
	for i, sed := range seds {
		if len(ids[i]) == 0 {
			continue
		}
		r, err := roundTrip(sed.Addr, &Request{Kind: KindExec, Exec: &ExecRequest{
			ScenarioIDs: ids[i],
			Months:      app.Months,
			Heuristic:   heuristic,
		}})
		if err != nil {
			return nil, err
		}
		if r.Exec == nil {
			return nil, fmt.Errorf("diet: SeD %s returned no execution report", sed.Cluster)
		}
		out.Reports = append(out.Reports, *r.Exec)
		if r.Exec.Makespan > out.Makespan {
			out.Makespan = r.Exec.Makespan
		}
	}
	return out, nil
}
