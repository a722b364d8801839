package grid

import (
	"context"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// sameCampaignOutcome demands two campaign results are bit-identical where
// it matters: same report sequence (cluster, scenario count, round, first
// scenario, makespan bits) and same campaign makespan bits.
func sameCampaignOutcome(t *testing.T, tag string, got, want *diet.CampaignResult) {
	t.Helper()
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("%s: campaign makespan %g, want bit-identical %g", tag, got.Makespan, want.Makespan)
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: %d chunk reports, want %d", tag, len(got.Reports), len(want.Reports))
	}
	for i := range got.Reports {
		g, w := got.Reports[i], want.Reports[i]
		if g.Cluster != w.Cluster || g.Scenarios != w.Scenarios || g.Round != w.Round ||
			g.FirstScenario != w.FirstScenario || math.Float64bits(g.Makespan) != math.Float64bits(w.Makespan) {
			t.Fatalf("%s: report %d is %+v, want %+v", tag, i, g, w)
		}
	}
}

// TestCrossVersionMatrix runs the same campaign through every protocol
// pairing the wire floor allows — raw v4, v5, v6 and v7 clients against a
// current daemon, and the current client against daemons capped at v4, v5
// and v6 — and demands every pairing negotiates min(client, daemon) and
// produces a bit-identical campaign.
func TestCrossVersionMatrix(t *testing.T) {
	f := startFabric(t, testConfig(), 3)
	addr := f.Sched.Addr()
	app := core.Application{Scenarios: 6, Months: 12}
	submit := func() *diet.SubmitRequest {
		return &diet.SubmitRequest{
			Scenarios: app.Scenarios, Months: app.Months, Heuristic: core.NameKnapsack,
			Wait: true, Progress: true,
		}
	}
	// rawOutcome submits at version v and checks the negotiated version and
	// the stream's shape: verdict, at least one progress frame, result.
	rawOutcome := func(addr string, v, wantVer int) *diet.CampaignResult {
		t.Helper()
		frames := submitRaw(t, addr, v, submit())
		if len(frames) < 3 {
			t.Fatalf("v%d client got %d frames, want verdict + progress + result", v, len(frames))
		}
		// Progress frames share one cached v4 encoding (progressFrame), so
		// only the verdict and the result carry the negotiated version.
		final := frames[len(frames)-1]
		if frames[0].Version != wantVer || final.Version != wantVer {
			t.Fatalf("v%d client: verdict v%d, result v%d, want v%d", v, frames[0].Version, final.Version, wantVer)
		}
		if final.Result == nil || final.Result.Status != diet.CampaignDone {
			t.Fatalf("v%d campaign did not complete: %+v", v, final)
		}
		return final.Result
	}

	client := &Client{Addr: addr}
	want, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, want)

	for v := diet.ProtocolV4; v <= diet.ProtocolVersion; v++ {
		got := rawOutcome(addr, v, v)
		sameCampaignOutcome(t, fmt.Sprintf("raw v%d client vs current daemon", v), got, want)
	}

	for maxVer := diet.ProtocolV4; maxVer < diet.ProtocolVersion; maxVer++ {
		cfg := testConfig()
		cfg.MaxProtocol = maxVer
		capped := startFabric(t, cfg, 3)
		c := &Client{Addr: capped.Sched.Addr()}
		got, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
		if err != nil {
			t.Fatalf("current client vs v%d daemon: %v", maxVer, err)
		}
		sameCampaignOutcome(t, fmt.Sprintf("current client vs v%d daemon", maxVer), got, want)
		raw := rawOutcome(capped.Sched.Addr(), diet.ProtocolVersion, maxVer)
		sameCampaignOutcome(t, fmt.Sprintf("raw current client vs v%d daemon", maxVer), raw, want)
	}
}

// TestBinaryConnSpeaksV4 proves the daemon really serves the binary codec
// on its one port: a raw frame exchange negotiates v4 and answers stats.
func TestBinaryConnSpeaksV4(t *testing.T) {
	f := startFabric(t, testConfig(), 1)
	conn, err := net.Dial("tcp", f.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := diet.WriteRequestFrame(conn, &diet.Request{
		Version: diet.ProtocolVersion, Kind: diet.KindStats, Stats: &diet.StatsRequest{},
	}); err != nil {
		t.Fatal(err)
	}
	dec := &diet.FrameDecoder{Retain: true}
	resp, err := dec.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != diet.ProtocolVersion {
		t.Fatalf("binary connection negotiated %d, want %d", resp.Version, diet.ProtocolVersion)
	}
	if resp.Stats == nil {
		t.Fatalf("no stats in binary response: %+v", resp)
	}
}

// TestSubmitCompatAcrossV4V5 pins the staged-rollout rows the v5 Code
// field could break: a current client against a daemon capped at protocol
// v4, and a raw v4 binary client against a current daemon. In both mixed
// pairings the submit verdict must round-trip over binary framing — the
// v5 field stays off the wire, because the strict binary decoder rejects
// any trailing bytes.
func TestSubmitCompatAcrossV4V5(t *testing.T) {
	cfg := testConfig()
	cfg.MaxProtocol = diet.ProtocolV4
	f := startFabric(t, cfg, 3)
	addr := f.Sched.Addr()
	app := core.Application{Scenarios: 6, Months: 12}

	// Current client, v4-capped daemon: the daemon must emit byte-exact v4
	// submit verdicts a strict reader accepts.
	client := &Client{Addr: addr, Timeout: 30 * time.Second}
	res, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatalf("campaign against a v4-capped daemon: %v", err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)

	// Raw v4 binary client, current daemon: the negotiated version is v4, so
	// the verdict frame must end at QueueDepth — a smuggled Code field would
	// fail this strict decode with trailing payload bytes.
	f2 := startFabric(t, testConfig(), 1)
	conn, err := net.Dial("tcp", f2.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := diet.WriteRequestFrame(conn, &diet.Request{
		Version: diet.ProtocolV4, Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
			Scenarios: 2, Months: 6, Heuristic: core.NameKnapsack,
		},
	}); err != nil {
		t.Fatal(err)
	}
	dec := &diet.FrameDecoder{Retain: true}
	resp, err := dec.ReadResponse(conn)
	if err != nil {
		t.Fatalf("v4 binary client decoding a current daemon's verdict: %v", err)
	}
	if resp.Version != diet.ProtocolV4 {
		t.Fatalf("v4 binary submit negotiated %d, want %d", resp.Version, diet.ProtocolV4)
	}
	if resp.Submit == nil || !resp.Submit.Accepted {
		t.Fatalf("v4 binary submit rejected: %+v", resp)
	}
	if resp.Submit.Code != "" {
		t.Fatalf("v4 verdict carried code %q", resp.Submit.Code)
	}
}

// TestStartRejectsPreV4MaxProtocol: a daemon capped below the v4 wire floor
// could serve no frame at all, so Start refuses the configuration.
func TestStartRejectsPreV4MaxProtocol(t *testing.T) {
	for maxVer := 1; maxVer < diet.ProtocolV4; maxVer++ {
		s, err := Start(Config{Addr: "127.0.0.1:0", MaxProtocol: maxVer})
		if err == nil {
			s.Close()
			t.Fatalf("Start accepted MaxProtocol %d", maxVer)
		}
	}
}
