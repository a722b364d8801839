package grid

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// linkApp is the campaign shape of the link tests: small enough that the
// wire dominates, and with NS above the fleet size so every SeD gets a
// chunk.
var linkApp = core.Application{Scenarios: 4, Months: 12}

// quietFabric starts n SeDs that fall silent once they are alive, under an
// eviction deadline no test outlasts: the process then dials nothing but
// what the test does, and a SeD leaves the pool only through a failed
// exchange.
func quietFabric(t *testing.T, n int) *Fabric {
	t.Helper()
	cfg := testConfig()
	cfg.EvictAfter = time.Minute
	f := startFabric(t, cfg, n)
	for _, sed := range f.SeDs {
		sed.StopHeartbeats()
	}
	return f
}

// runVerified runs one linkApp campaign and checks it bit for bit against
// serial evaluation.
func runVerified(t *testing.T, f *Fabric) *diet.CampaignResult {
	t.Helper()
	res, err := (&Client{Addr: f.Sched.Addr()}).Run(linkApp, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, linkApp, core.NameKnapsack, res)
	return res
}

// warm runs campaigns until every SeD's performance vector is cached and
// its link holds an idle connection.
func warm(t *testing.T, f *Fabric) {
	t.Helper()
	for i := 0; i < 5; i++ {
		runVerified(t, f)
	}
}

func servedBy(res *diet.CampaignResult, cluster string) bool {
	for _, rep := range res.Reports {
		if rep.Cluster == cluster {
			return true
		}
	}
	return false
}

// TestWarmFabricDialsNoSeD: on a warm fabric a campaign costs one dial, its
// client stream; every scheduler→SeD exchange reuses a pooled connection.
func TestWarmFabricDialsNoSeD(t *testing.T) {
	f := quietFabric(t, 3)
	warm(t, f)
	const campaigns = 50
	before := diet.WireStats().Dials
	for i := 0; i < campaigns; i++ {
		if res := runVerified(t, f); res.Requeues != 0 {
			t.Fatalf("campaign %d requeued %d times on a healthy fleet", res.ID, res.Requeues)
		}
	}
	if dials := diet.WireStats().Dials - before; dials != campaigns {
		t.Fatalf("%d campaigns dialed %d times, want %d (client streams only)", campaigns, dials, campaigns)
	}
}

// TestRestartedSeDStaleLinkRetried: a SeD restarted on the same address
// leaves the scheduler a pooled connection to the dead process. The next
// exchange on it fails before any response byte, is retried once on a
// fresh dial, and the campaign completes without a requeue.
func TestRestartedSeDStaleLinkRetried(t *testing.T) {
	f := quietFabric(t, 3)
	warm(t, f)
	victim := f.SeDs[0]
	addr, cl := victim.Addr(), victim.Cluster()
	victim.Close()
	sed, err := diet.StartSeD(addr, cl, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.SeDs[0] = sed // the fabric's cleanup closes the replacement

	before := diet.WireStats().Dials
	res := runVerified(t, f)
	if res.Requeues != 0 {
		t.Fatalf("stale pooled connection cost %d requeues, want 0", res.Requeues)
	}
	if !servedBy(res, cl.Name) {
		t.Fatalf("restarted SeD %s served no chunk: %+v", cl.Name, res.Reports)
	}
	if dials := diet.WireStats().Dials - before; dials != 2 {
		t.Fatalf("campaign dialed %d times, want 2 (client stream, one redial of the restarted SeD)", dials)
	}
	if got := f.Sched.Stats().Requeues; got != 0 {
		t.Fatalf("scheduler counted %d requeues, want 0", got)
	}
}

// TestClosedSeDRequeuesOntoSurvivor: a SeD closed while the scheduler holds
// pooled connections to it answers nothing more, not even on those
// connections. Its chunk is requeued onto the survivors and every campaign
// still verifies bit for bit.
func TestClosedSeDRequeuesOntoSurvivor(t *testing.T) {
	f := quietFabric(t, 3)
	warm(t, f)
	victim := f.SeDs[0]
	cl := victim.Cluster().Name

	// Campaigns keep flowing while the SeD closes.
	v, err := NewVerifier(f.Clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := &Client{Addr: f.Sched.Addr()}
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := c.Run(linkApp, core.NameKnapsack)
			if err == nil {
				err = v.Verify(linkApp, res)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	victim.Close()

	// Unless a background campaign already found the closed SeD dead, the
	// scheduler still counts it alive (no heartbeat deadline has passed)
	// and this campaign plans a chunk onto it; either way it answers none.
	res := runVerified(t, f)
	close(stop)
	wg.Wait()
	if servedBy(res, cl) {
		t.Fatalf("closed SeD %s still answered: %+v", cl, res.Reports)
	}
	stats := f.Sched.Stats()
	if stats.Requeues == 0 {
		t.Fatal("closing a SeD cost no requeue")
	}
	if stats.Failed != 0 {
		t.Fatalf("scheduler counted %d failed campaigns, want 0", stats.Failed)
	}
	for _, sd := range stats.SeDs {
		if sd.Cluster == cl && sd.Alive {
			t.Fatalf("closed SeD %s still alive in %+v", cl, stats.SeDs)
		}
	}
}

// startOneShotSeD serves cluster the way a SeD did before connections were
// kept alive — one request frame, one response frame, then the connection
// closes — and registers it with one heartbeat.
func startOneShotSeD(t *testing.T, cluster *platform.Cluster, schedAddr string) {
	t.Helper()
	h, err := diet.NewHandler(cluster, engine.DES{}, engine.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := diet.GetFrameDecoder(false)
				defer diet.PutFrameDecoder(dec)
				req, err := dec.ReadRequest(conn)
				if err != nil {
					return
				}
				resp, err := h.Call(context.Background(), req)
				if err != nil {
					resp = &diet.Response{Err: err.Error()}
				}
				resp.Version = diet.NegotiateVersion(req.Version)
				_ = diet.WriteResponseFrame(conn, resp)
			}()
		}
	}()
	if _, err := diet.RoundTrip(schedAddr, &diet.Request{Kind: diet.KindHeartbeat, Heartbeat: &diet.HeartbeatRequest{
		Cluster: cluster.Name, Addr: ln.Addr().String(), Procs: cluster.Procs,
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestOneShotSeDInteroperates: SeDs that close every connection after one
// response still serve every campaign bit for bit and without a requeue —
// each pooled connection they closed is retried on a fresh dial.
func TestOneShotSeDInteroperates(t *testing.T) {
	cfg := testConfig()
	cfg.EvictAfter = time.Minute
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	f := &Fabric{Sched: sched, Clusters: map[string]*platform.Cluster{}}
	for _, cl := range platform.FiveClusters()[:3] {
		cl.Procs = 30
		f.Clusters[cl.Name] = cl
		startOneShotSeD(t, cl, sched.Addr())
	}
	waitAliveAddr(t, sched.Addr(), 3, 5*time.Second)
	for i := 0; i < 10; i++ {
		if res := runVerified(t, f); res.Requeues != 0 {
			t.Fatalf("campaign %d requeued %d times against one-shot SeDs", res.ID, res.Requeues)
		}
	}
}
