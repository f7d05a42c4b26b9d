package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/ssc"
)

// spinSkel serves one deliberately expensive method: it burns real CPU for
// a wall-time slice, so one call is simultaneously (a) a tail-latency
// outlier the attribution machinery must catch and (b) a hot frame an
// on-demand CPU profile must be able to show.  burn is set before the
// first call.
type spinSkel struct{ burn time.Duration }

func (s *spinSkel) TypeID() string { return "test.Attrib" }

func (s *spinSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "spin" {
		return orb.ErrNoSuchMethod
	}
	//lint:ignore sleepyclock deliberate real-time CPU burn: the fake clock cannot spend cycles, and the CPU profile has to catch this frame
	for end := time.Now().Add(s.burn); time.Now().Before(end); {
	}
	return nil
}

// attribRuns numbers TestClusterTailAttribution's runs in this process.
var attribRuns atomic.Uint32

// TestClusterTailAttribution is the end-to-end check of the tail-latency
// attribution story (DESIGN.md §13): a deliberately slow handler in a live
// cluster is found three independent ways, all through the wire surfaces
// itv-admin uses.  The sampled call's trace id turns up as the top-bucket
// exemplar in _metrics on both sides of the call, the _slow ledger entry
// blames the handler's service phase (not queueing or flushing), the
// admission leaves a traced breadcrumb in the flight recorder, and an
// on-demand _profile CPU capture taken while the handler is under load
// comes back as a non-empty pprof gzip.
func TestClusterTailAttribution(t *testing.T) {
	// The target machine and the operator get addresses no earlier run in
	// this process used.  A node's slow ledger lives as long as the process
	// and its admission threshold is four times a slow-decaying estimate of
	// the node's tail: under -count=N the profile load at the end of run
	// N-1 leaves the estimate at the burn, and run N's one sampled call
	// would no longer clear the threshold.  The operator's call-latency
	// histogram lives as long too, and an earlier run's call that landed in
	// a higher bucket would keep the top exemplar.
	subnet := 100 + attribRuns.Add(1)%100
	cfg := twoServers()
	cfg.Servers[0].Host = fmt.Sprintf("192.168.%d.1", subnet)
	c := startCluster(t, cfg)
	target := c.Servers[0]
	addr := fmt.Sprintf("%s:%d", target.Spec.Host, ssc.WellKnownPort)

	scrape := newScraper(t, c)

	// A second endpoint on the target machine hosts the slow object.  It
	// shares the machine's registry, flight recorder and slow ledger with
	// the SSC endpoint — exactly like another service on the same node —
	// so the SSC's well-known port serves its attribution.
	svc, err := orb.NewEndpoint(c.NW.Host(target.Spec.Host))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	spin := &spinSkel{}
	ref := svc.Register("", spin)

	// Operator endpoint, pinned to simulated time like every cluster node.
	operator := fmt.Sprintf("192.168.%d.252", subnet)
	obs.NodeHLC(operator).SetNow(c.Clk.Now)
	admin, err := orb.NewEndpoint(c.NW.Host(operator))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(admin.Close)
	admin.SetCallTimeout(45 * time.Second)

	// One sampled call to the slow method: its burn towers over the
	// cluster's microsecond-scale traffic, so it must clear the ledger's
	// admission threshold and land its exemplar in the top bucket.  The
	// threshold is four times the node's tail estimate, which a slow boot
	// (under -race, say) can raise: the burn is five times the estimate read
	// just before, and 8ms at least.
	before, err := admin.SlowOf(addr)
	if err != nil {
		t.Fatal(err)
	}
	spin.burn = max(8*time.Millisecond, 5*before.Estimate)
	t.Logf("tail estimate %s, burn %s", before.Estimate, spin.burn)
	sp := obs.Span{TraceID: obs.NewSpanID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithSpan(context.Background(), sp)
	if err := admin.InvokeCtx(ctx, ref, "spin", nil, nil); err != nil {
		t.Fatal(err)
	}

	// (a) The trace id is scrapeable as a latency exemplar: server-side in
	// the service-time decomposition, client-side in the call latency.
	// Attribution runs on the flusher after the reply hits the wire, so
	// the scrape can race it by a beat.
	waitFor(t, c, "service-time exemplar scraped over _metrics", func() bool {
		text, merr := admin.MetricsOf(addr)
		if merr != nil {
			return false
		}
		exes := obs.ParseExemplars(obs.ParseText(text))
		ex, ok := obs.TopExemplar(exes, "orb_service_time{method=spin}")
		return ok && ex.Trace == sp.TraceID
	})
	text, err := admin.MetricsOf(admin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	exes := obs.ParseExemplars(obs.ParseText(text))
	ex, ok := obs.TopExemplar(exes, "orb_call_latency{method=test.Attrib.spin}")
	if !ok || ex.Trace != sp.TraceID {
		t.Fatalf("client exemplar = %+v ok=%v, want trace %016x", ex, ok, sp.TraceID)
	}

	// (b) The slow-call ledger has the call, and its three-way breakdown
	// blames the handler: service dominates queue-wait and flush-wait.
	var slow obs.SlowCall
	waitFor(t, c, "traced entry in the slow-call ledger", func() bool {
		rep, serr := admin.SlowOf(addr)
		if serr != nil {
			return false
		}
		for _, sc := range rep.Calls {
			if sc.Trace == sp.TraceID {
				slow = sc
				return true
			}
		}
		return false
	})
	if slow.Method != "spin" || slow.Node != target.Spec.Host {
		t.Fatalf("ledger entry = method %q node %q, want spin on %s", slow.Method, slow.Node, target.Spec.Host)
	}
	if slow.Service < spin.burn {
		t.Fatalf("service = %s, want >= the %s burn", slow.Service, spin.burn)
	}
	if slow.Service < slow.Queue || slow.Service < slow.Flush {
		t.Fatalf("breakdown blames the wrong phase: q=%s s=%s f=%s", slow.Queue, slow.Service, slow.Flush)
	}
	if slow.Threshold <= 0 || slow.Total < slow.Service {
		t.Fatalf("implausible entry: total=%s thr=%s", slow.Total, slow.Threshold)
	}

	// The admission also left a traced breadcrumb in the flight recorder,
	// so `itv-admin trace <id>` stitches the slow call into its timeline.
	waitFor(t, c, "slow_call_recorded event under the trace", func() bool {
		for _, ev := range obs.FilterTrace(scrape(), sp.TraceID) {
			if ev.Name == "slow_call_recorded" {
				return true
			}
		}
		return false
	})

	// (c) An on-demand CPU profile captured while the handler is under
	// load comes back as non-empty pprof data (gzip-framed).  The load
	// runs unsampled, like real background traffic.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := admin.Invoke(ref, "spin", nil, nil); err != nil {
					return
				}
			}
		}()
	}
	data, perr := admin.ProfileOf(addr, "cpu", 1, 0)
	close(stop)
	wg.Wait()
	if perr != nil {
		t.Fatalf("ProfileOf(cpu): %v", perr)
	}
	if len(data) < 64 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("cpu profile: %d bytes, header % x — want a non-empty gzip", len(data), data[:min(2, len(data))])
	}
}
