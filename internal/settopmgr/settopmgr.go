// Package settopmgr implements the Settop Manager (§3.3): the per-server
// service that maintains settop status (up or down).  Settops report
// heartbeats after boot; a settop whose heartbeats stop is marked down
// after a timeout.  The Resource Audit Service polls the local Settop
// Manager to answer liveness questions about settops (§7.2).
package settopmgr

import (
	"fmt"
	"sync"
	"time"

	"itv/internal/clock"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// WellKnownPort is the Settop Manager's fixed port on every server.
const WellKnownPort = 558

// TypeID is the IDL interface name.
const TypeID = "itv.SettopManager"

// DefaultHeartbeatTimeout is how long after the last heartbeat a settop is
// still considered up.
const DefaultHeartbeatTimeout = 10 * time.Second

// Manager tracks the settops of this server's neighborhoods.
type Manager struct {
	clk clock.Clock
	ep  *orb.Endpoint

	mu      sync.Mutex
	settops map[string]settopState // host -> state
	// HeartbeatTimeout overrides the staleness bound.
	timeout time.Duration
}

type settopState struct {
	lastSeen time.Time
	down     bool // explicitly marked down
}

// New starts a Settop Manager on tr's host.
func New(tr transport.Transport, clk clock.Clock) (*Manager, error) {
	ep, err := orb.NewEndpointOn(tr, WellKnownPort)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		clk:     clk,
		ep:      ep,
		settops: make(map[string]settopState),
		timeout: DefaultHeartbeatTimeout,
	}
	ep.Register("", &skel{m: m})
	return m, nil
}

// SetHeartbeatTimeout adjusts the staleness bound.
func (m *Manager) SetHeartbeatTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// Ref returns the manager's persistent reference.
func (m *Manager) Ref() oref.Ref { return oref.Persistent(m.ep.Addr(), TypeID, "") }

// Endpoint exposes the manager's endpoint (authenticator wiring).
func (m *Manager) Endpoint() *orb.Endpoint { return m.ep }

// RefAt returns the Settop Manager reference for the server at host.
func RefAt(host string) oref.Ref {
	return oref.Persistent(fmt.Sprintf("%s:%d", host, WellKnownPort), TypeID, "")
}

// Close stops the manager.
func (m *Manager) Close() { m.ep.Close() }

// Heartbeat records liveness for the settop at host.
func (m *Manager) Heartbeat(host string) {
	m.mu.Lock()
	m.settops[host] = settopState{lastSeen: m.clk.Now()}
	m.mu.Unlock()
}

// MarkDown explicitly declares a settop down (operator action or a
// detected crash during a download).
func (m *Manager) MarkDown(host string) {
	m.mu.Lock()
	if st, ok := m.settops[host]; ok {
		st.down = true
		m.settops[host] = st
	} else {
		m.settops[host] = settopState{down: true}
	}
	m.mu.Unlock()
}

// Up reports whether the settop at host is up.  A settop this manager has
// never heard from is reported up: status knowledge builds up over time,
// and an unknown entity is given the benefit of the doubt (§7.2's
// "unknown" starting state).
func (m *Manager) Up(host string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.settops[host]
	if !ok {
		return true
	}
	if st.down {
		return false
	}
	return m.clk.Now().Sub(st.lastSeen) <= m.timeout
}

// Known reports how many settops the manager is tracking.
func (m *Manager) Known() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.settops)
}

type skel struct{ m *Manager }

func (s *skel) TypeID() string { return TypeID }

func (s *skel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "heartbeat":
		// The settop's identity is its calling address — unforgeable when
		// calls are signed (§3.3).
		s.m.Heartbeat(c.Caller().Host())
		return nil
	case "markDown":
		s.m.MarkDown(c.Args().String())
		return nil
	case "status":
		hosts := c.Args().Strings()
		e := c.Results()
		e.PutUint(uint64(len(hosts)))
		for _, h := range hosts {
			e.PutBool(s.m.Up(h))
		}
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Stub is the client proxy for a Settop Manager.
type Stub struct {
	Ep  *orb.Endpoint
	Ref oref.Ref
}

// Heartbeat reports the calling settop alive.
func (s Stub) Heartbeat() error {
	return s.Ep.Invoke(s.Ref, "heartbeat", nil, nil)
}

// MarkDown declares a settop down.
func (s Stub) MarkDown(host string) error {
	return s.Ep.Invoke(s.Ref, "markDown",
		func(e *wire.Encoder) { e.PutString(host) }, nil)
}

// Status reports up/down for each host.
func (s Stub) Status(hosts []string) ([]bool, error) {
	var out []bool
	err := s.Ep.Invoke(s.Ref, "status",
		func(e *wire.Encoder) { e.PutStrings(hosts) },
		func(d *wire.Decoder) error {
			n := d.Count()
			out = make([]bool, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				out = append(out, d.Bool())
			}
			return nil
		})
	return out, err
}
