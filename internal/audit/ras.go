// Package audit implements the Resource Audit Service (§7): per-server
// replicas that cooperatively track the liveness of settops and service
// objects so that services can reclaim resources after client failures.
//
// The design follows the paper's fourth alternative (§7.1): a single
// service tracks entity status, chosen because it scales — the network
// cost is peer-RAS polling between servers, independent of how many
// clients hold resources.  The RAS keeps no durable state: it learns what
// to track from the questions it is asked and from the local SSC's
// callback (which replays the full live-object set on registration), so a
// restarted RAS recovers automatically (§7.2).
//
// The package also implements the three rejected alternatives — estimated
// duration timeouts, client-renewed leases, and per-service pinging — so
// the evaluation suite can reproduce the §7.1 comparison.
package audit

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/obs"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/settopmgr"
	"itv/internal/ssc"
	"itv/internal/transport"
)

// WellKnownPort is the RAS's fixed port on every server (peer instances
// find each other by host).
const WellKnownPort = 556

// TypeID is the IDL interface name.
const TypeID = "itv.RAS"

// TypeSettop is the reference type conventionally used for settop
// entities: Addr carries the settop's address, liveness comes from the
// Settop Manager.
const TypeSettop = "itv.Settop"

// Config parameterizes a RAS instance; the defaults are the deployed
// settings of §9.7.
type Config struct {
	// PeerPollInterval is how often remote entities are re-checked against
	// the RAS instance on their server (default 5s — "RAS polls other RASs
	// every 5 seconds").
	PeerPollInterval time.Duration
	// PruneAfter drops entities nobody has asked about for this long.
	PruneAfter time.Duration
}

func (c *Config) fill() {
	if c.PeerPollInterval == 0 {
		c.PeerPollInterval = 5 * time.Second
	}
	if c.PruneAfter == 0 {
		c.PruneAfter = 10 * time.Minute
	}
}

type entity struct {
	ref     oref.Ref
	alive   bool
	lastAsk time.Time
	// trace is the causal trace under which the entity's death was observed
	// (0 when alive, or when the death was untraced — e.g. inferred from an
	// unreachable peer server rather than reported by its SSC).
	trace uint64
}

// Service is one server's RAS instance.
type Service struct {
	clk  clock.Clock
	cfg  Config
	ep   *orb.Endpoint
	host string
	rec  *obs.Recorder

	mu        sync.Mutex
	localLive map[string]bool   // ref.Key() -> live, from the SSC callback
	deadTrace map[string]uint64 // ref.Key() -> trace of the observed death
	synced    bool              // initial SSC callback received
	remote    map[string]*entity
	settops   map[string]*entity // settop host -> status
	sscOK     bool

	// Cached node counters; ras_peer_rpcs is what the O(servers²) audit
	// scalability test measures (§7.2.1).
	pollRounds   *obs.Counter
	peerRPCs     *obs.Counter
	peerRPCErrs  *obs.Counter
	deadDeclared *obs.Counter
	remoteGauge  *obs.Gauge
	settopGauge  *obs.Gauge

	loop *clock.Loop
}

// New starts a RAS instance on tr's host and registers its callback with
// the local SSC (retrying in the background if the SSC is not up yet —
// boot ordering, §6.3).
func New(tr transport.Transport, clk clock.Clock, cfg Config) (*Service, error) {
	cfg.fill()
	ep, err := orb.NewEndpointOn(tr, WellKnownPort)
	if err != nil {
		return nil, err
	}
	reg := obs.Node(tr.Host())
	s := &Service{
		clk:          clk,
		cfg:          cfg,
		ep:           ep,
		host:         tr.Host(),
		rec:          obs.NodeRecorder(tr.Host()),
		localLive:    make(map[string]bool),
		deadTrace:    make(map[string]uint64),
		remote:       make(map[string]*entity),
		settops:      make(map[string]*entity),
		pollRounds:   reg.Counter("ras_poll_rounds"),
		peerRPCs:     reg.Counter("ras_peer_rpcs"),
		peerRPCErrs:  reg.Counter("ras_peer_rpc_failures"),
		deadDeclared: reg.Counter("ras_dead_declared"),
		remoteGauge:  reg.Gauge("ras_remote_entities"),
		settopGauge:  reg.Gauge("ras_settop_entities"),
	}
	ep.Register("", &skel{s: s})
	ep.Register("callback", ssc.CallbackFunc(s.objectsChanged))
	s.registerWithSSC()
	s.loop = clock.Every(clk, cfg.PeerPollInterval, false, func(time.Time) { s.poll() })
	return s, nil
}

// Ref returns the RAS's persistent reference.
func (s *Service) Ref() oref.Ref { return oref.Persistent(s.ep.Addr(), TypeID, "") }

// RefAt returns the RAS reference for the server at host.
func RefAt(host string) oref.Ref {
	return oref.Persistent(fmt.Sprintf("%s:%d", host, WellKnownPort), TypeID, "")
}

// Endpoint exposes the RAS endpoint (stats for the experiment suite).
func (s *Service) Endpoint() *orb.Endpoint { return s.ep }

// Close stops the RAS.  Its state is disposable by design.
func (s *Service) Close() {
	s.loop.Stop()
	s.ep.Close()
}

func (s *Service) registerWithSSC() {
	cbRef := s.ep.RefFor("callback")
	err := (ssc.Stub{Ep: s.ep, Ref: ssc.RefAt(s.host)}).RegisterCallback(cbRef)
	s.mu.Lock()
	s.sscOK = err == nil
	s.mu.Unlock()
}

// objectsChanged is the SSC callback (§7.2, mechanism 2): it maintains the
// authoritative live set for objects on this server.  The SSC replays the
// full live set at registration, so this doubles as crash recovery.
//
// A death reported under a sampled trace (the SSC mints one in reapObjects)
// is remembered per key, so every later status answer about the dead object
// — local or relayed to a polling peer RAS — carries the trace of the
// failure that killed it.
func (s *Service) objectsChanged(ctx context.Context, refs []oref.Ref, alive bool) {
	sp := obs.SpanFrom(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = true
	for _, r := range refs {
		if alive {
			s.localLive[r.Key()] = true
			delete(s.deadTrace, r.Key())
		} else {
			delete(s.localLive, r.Key())
			if sp.Sampled {
				// Bound the tomb map: it only needs to outlive the audits
				// that will ask about these keys, not the process.
				if len(s.deadTrace) > 1024 {
					s.deadTrace = make(map[string]uint64)
				}
				s.deadTrace[r.Key()] = sp.TraceID
				s.rec.Record(s.clk.Now(), sp.TraceID, "ras_object_dead", r.Key())
			}
		}
	}
}

// classify buckets a reference: settop, local object, or remote object.
func (s *Service) classify(ref oref.Ref) string {
	host := refHost(ref.Addr)
	switch {
	case ref.TypeID == TypeSettop || strings.HasPrefix(host, "10."):
		return "settop"
	case host == s.host:
		return "local"
	default:
		return "remote"
	}
}

// CheckStatus answers liveness for each reference, immediately and from
// local state only (§7.2: "any call to the RAS returns immediately and
// does not block"), and per dead reference the causal trace of the
// observed death (0 when untraced).  Unknown entities are recorded for
// monitoring and reported alive until learned otherwise.
func (s *Service) CheckStatus(refs []oref.Ref) ([]bool, []uint64) {
	now := s.clk.Now()
	out := make([]bool, len(refs))
	traces := make([]uint64, len(refs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, ref := range refs {
		switch s.classify(ref) {
		case "settop":
			host := refHost(ref.Addr)
			en, ok := s.settops[host]
			if !ok {
				en = &entity{ref: ref, alive: true}
				s.settops[host] = en
			}
			en.lastAsk = now
			out[i] = en.alive
		case "local":
			out[i] = s.localAliveLocked(ref)
			if !out[i] {
				traces[i] = s.deadTrace[ref.Key()]
			}
		default: // remote
			key := ref.Key()
			en, ok := s.remote[key]
			if !ok {
				en = &entity{ref: ref, alive: true}
				s.remote[key] = en
			}
			en.lastAsk = now
			out[i] = en.alive
			if !en.alive {
				traces[i] = en.trace
			}
		}
	}
	return out, traces
}

// localStatus evaluates refs against this server's SSC live set only (the
// peer-polling operation), with death traces.
func (s *Service) localStatus(refs []oref.Ref) ([]bool, []uint64) {
	out := make([]bool, len(refs))
	traces := make([]uint64, len(refs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range refs {
		out[i] = s.localAliveLocked(r)
		if !out[i] {
			traces[i] = s.deadTrace[r.Key()]
		}
	}
	return out, traces
}

// localAliveLocked evaluates a local object against the SSC live set.
func (s *Service) localAliveLocked(ref oref.Ref) bool {
	if !s.synced {
		// No SSC information yet: benefit of the doubt.
		return true
	}
	return s.localLive[ref.Key()]
}

// poll is the polling loop's round: every PeerPollInterval it refreshes
// remote entities from their servers' RAS instances and settop entities
// from the local Settop Manager, and it keeps trying to register with the
// SSC if that has not succeeded yet.
func (s *Service) poll() {
	s.pollRounds.Inc()
	s.mu.Lock()
	if !s.sscOK {
		s.mu.Unlock()
		s.registerWithSSC()
		s.mu.Lock()
	}
	now := s.clk.Now()

	// Group remote entities by server host and gather settop hosts.
	byHost := make(map[string][]*entity)
	for key, en := range s.remote {
		if now.Sub(en.lastAsk) > s.cfg.PruneAfter {
			delete(s.remote, key)
			continue
		}
		h := refHost(en.ref.Addr)
		byHost[h] = append(byHost[h], en)
	}
	var settopHosts []string
	var settopEnts []*entity
	for host, en := range s.settops {
		if now.Sub(en.lastAsk) > s.cfg.PruneAfter {
			delete(s.settops, host)
			continue
		}
		settopHosts = append(settopHosts, host)
		settopEnts = append(settopEnts, en)
	}
	s.mu.Unlock()

	// Remote objects: one localStatus call per peer server (§7.2.1 — the
	// only network messages the audit scheme needs).
	for host, ents := range byHost {
		refs := make([]oref.Ref, len(ents))
		for i, en := range ents {
			refs[i] = en.ref
		}
		alive, traces, err := s.peerLocalStatus(host, refs)
		if err != nil {
			// One retry guards against a peer RAS mid-restart; a second
			// failure means the server (or its RAS) is down, and its
			// objects are unreachable either way: dead.
			alive, traces, err = s.peerLocalStatus(host, refs)
		}
		s.mu.Lock()
		now := s.clk.Now()
		for i, en := range ents {
			was := en.alive
			if err != nil {
				en.alive = false
			} else if i < len(alive) {
				en.alive = en.alive && alive[i] // death is permanent per incarnation
				if !en.alive && en.trace == 0 && i < len(traces) {
					// Adopt the peer's death trace: the causal chain crosses
					// servers here, from the SSC that saw the death to the
					// RAS that will answer the name-space audit.
					en.trace = traces[i]
				}
			}
			if was && !en.alive {
				s.deadDeclared.Inc()
				s.rec.Record(now, en.trace, "ras_peer_dead", en.ref.Key())
			}
		}
		s.mu.Unlock()
	}

	// Settops: one status call to the local Settop Manager.
	if len(settopHosts) > 0 {
		stub := settopmgr.Stub{Ep: s.ep, Ref: settopmgr.RefAt(s.host)}
		up, err := stub.Status(settopHosts)
		if err == nil {
			s.mu.Lock()
			for i, en := range settopEnts {
				if i < len(up) {
					if en.alive && !up[i] {
						s.deadDeclared.Inc()
					}
					en.alive = up[i]
				}
			}
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	s.remoteGauge.Set(int64(len(s.remote)))
	s.settopGauge.Set(int64(len(s.settops)))
	s.mu.Unlock()
}

func (s *Service) peerLocalStatus(host string, refs []oref.Ref) ([]bool, []uint64, error) {
	s.peerRPCs.Inc()
	// The poll doubles as a clock-offset measurement (§7.2.1 already pays
	// for the round trip): t1/t4 bracket the exchange, the sink captures
	// the peer's HLC from the response frame.
	var sink obs.ClockSink
	t1 := s.clk.Now()
	alive, traces, err := (Stub{Ep: s.ep, Ref: RefAt(host)}).
		LocalStatus(obs.WithClockSink(context.Background(), &sink), refs)
	t4 := s.clk.Now()
	if err != nil {
		s.peerRPCErrs.Inc()
	} else {
		obs.MeasureOffset(s.host, host, t1, t4, sink.Last())
	}
	return alive, traces, err
}

func refHost(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}
