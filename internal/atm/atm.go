// Package atm simulates the trial's ATM distribution network (§3.1): the
// bandwidth-constrained links between servers and settops over which the
// Connection Manager performs admission control.  Each settop is allowed
// 50 Kb/s upstream and 6 Mb/s downstream; each server has a configurable
// egress trunk.  Connections are constant-bit-rate (movie streams) or
// variable-bit-rate (Reliable Delivery Service downloads), and the
// simulator enforces the invariant that no link is ever oversubscribed.
//
// The simulator stands in for the physical switches; it answers the same
// questions the hardware would (can this connection be admitted? how long
// does a transfer of N bytes take at this rate?) without moving real
// traffic — the paper's evaluation properties are about admission and
// reconfiguration, not payload bytes.
package atm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Bandwidth values in bits per second.
const (
	Kbps = 1000
	Mbps = 1000 * Kbps

	// DefaultSettopUp is the per-settop upstream allowance (§3.1).
	DefaultSettopUp = 50 * Kbps
	// DefaultSettopDown is the per-settop downstream allowance (§3.1).
	DefaultSettopDown = 6 * Mbps
	// DefaultServerEgress is a server's trunk into the ATM fabric.
	DefaultServerEgress = 600 * Mbps
)

// Kind distinguishes connection scheduling classes.
type Kind int

const (
	// CBR reserves the full rate for the connection's lifetime — movie
	// streams (Media Delivery Service).
	CBR Kind = iota
	// VBR connections get up to the requested rate from whatever is left —
	// downloads (Reliable Delivery Service).
	VBR
)

func (k Kind) String() string {
	if k == CBR {
		return "CBR"
	}
	return "VBR"
}

// Errors from admission control.
var (
	ErrNoSuchLink   = errors.New("atm: unknown endpoint")
	ErrInsufficient = errors.New("atm: insufficient bandwidth")
	ErrUnknownConn  = errors.New("atm: unknown connection")
	ErrInvalidRate  = errors.New("atm: rate must be positive")
)

type link struct {
	name     string
	capacity int64
	reserved int64
}

func (l *link) available() int64 { return l.capacity - l.reserved }

// Conn describes an admitted connection.
type Conn struct {
	ID   string
	From string // server host
	To   string // settop host
	Rate int64  // admitted bits/second
	Kind Kind
}

// Network is the simulated ATM fabric.
type Network struct {
	mu      sync.Mutex
	nextID  int64
	servers map[string]*link // server host -> egress link
	downs   map[string]*link // settop host -> downstream link
	ups     map[string]*link // settop host -> upstream link
	conns   map[string]*Conn

	settopDown int64
}

// New builds an empty fabric with the paper's per-settop allowances.
func New() *Network {
	return &Network{
		servers:    make(map[string]*link),
		downs:      make(map[string]*link),
		ups:        make(map[string]*link),
		conns:      make(map[string]*Conn),
		settopDown: DefaultSettopDown,
	}
}

// SetSettopDown overrides the downstream allowance of settops added
// afterwards (the trial varied it per configuration, §3.1); every settop's
// upstream is DefaultSettopUp.
func (n *Network) SetSettopDown(down int64) {
	n.mu.Lock()
	n.settopDown = down
	n.mu.Unlock()
}

// AddServer attaches a server with the given egress capacity (0 means
// DefaultServerEgress).
func (n *Network) AddServer(host string, egress int64) {
	if egress == 0 {
		egress = DefaultServerEgress
	}
	n.mu.Lock()
	n.servers[host] = &link{name: "server:" + host, capacity: egress}
	n.mu.Unlock()
}

// AddSettop attaches a settop with the configured allowances.
func (n *Network) AddSettop(host string) {
	n.mu.Lock()
	n.downs[host] = &link{name: "down:" + host, capacity: n.settopDown}
	n.ups[host] = &link{name: "up:" + host, capacity: DefaultSettopUp}
	n.mu.Unlock()
}

// Allocate admits a downstream connection from server to settop at the
// requested rate.  CBR admission is all-or-nothing; VBR admission grants
// min(rate, available) and fails only when nothing is available.
func (n *Network) Allocate(server, settop string, rate int64, kind Kind) (Conn, error) {
	if rate <= 0 {
		return Conn{}, ErrInvalidRate
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	sl, ok := n.servers[server]
	if !ok {
		return Conn{}, fmt.Errorf("%w: server %s", ErrNoSuchLink, server)
	}
	dl, ok := n.downs[settop]
	if !ok {
		return Conn{}, fmt.Errorf("%w: settop %s", ErrNoSuchLink, settop)
	}
	avail := min64(sl.available(), dl.available())
	granted := rate
	switch kind {
	case CBR:
		if avail < rate {
			return Conn{}, fmt.Errorf("%w: need %d, have %d", ErrInsufficient, rate, avail)
		}
	case VBR:
		if avail <= 0 {
			return Conn{}, fmt.Errorf("%w: link saturated", ErrInsufficient)
		}
		granted = min64(rate, avail)
	}
	sl.reserved += granted
	dl.reserved += granted
	n.nextID++
	c := &Conn{
		ID:   fmt.Sprintf("conn-%d", n.nextID),
		From: server,
		To:   settop,
		Rate: granted,
		Kind: kind,
	}
	n.conns[c.ID] = c
	return *c, nil
}

// Release frees a connection's bandwidth.
func (n *Network) Release(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.conns[id]
	if !ok {
		return ErrUnknownConn
	}
	delete(n.conns, id)
	if sl, ok := n.servers[c.From]; ok {
		sl.reserved -= c.Rate
	}
	if dl, ok := n.downs[c.To]; ok {
		dl.reserved -= c.Rate
	}
	return nil
}

// Lookup returns a connection's descriptor.
func (n *Network) Lookup(id string) (Conn, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.conns[id]
	if !ok {
		return Conn{}, false
	}
	return *c, true
}

// Conns returns the number of admitted connections.
func (n *Network) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// List returns descriptors for every admitted connection (diagnostics).
func (n *Network) List() []Conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Conn, 0, len(n.conns))
	for _, c := range n.conns {
		out = append(out, *c)
	}
	return out
}

// ServerLoad reports a server's reserved and total egress bandwidth.
func (n *Network) ServerLoad(host string) (reserved, capacity int64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, found := n.servers[host]
	if !found {
		return 0, 0, false
	}
	return l.reserved, l.capacity, true
}

// SettopLoad reports a settop's reserved and total downstream bandwidth.
func (n *Network) SettopLoad(host string) (reserved, capacity int64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, found := n.downs[host]
	if !found {
		return 0, 0, false
	}
	return l.reserved, l.capacity, true
}

// CheckInvariants verifies no link is oversubscribed or negative; tests
// and the property suite call it after random workloads.
func (n *Network) CheckInvariants() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	check := func(l *link) error {
		if l.reserved < 0 {
			return fmt.Errorf("atm: link %s negative reservation %d", l.name, l.reserved)
		}
		if l.reserved > l.capacity {
			return fmt.Errorf("atm: link %s oversubscribed %d > %d", l.name, l.reserved, l.capacity)
		}
		return nil
	}
	for _, l := range n.servers {
		if err := check(l); err != nil {
			return err
		}
	}
	for _, l := range n.downs {
		if err := check(l); err != nil {
			return err
		}
	}
	for _, l := range n.ups {
		if err := check(l); err != nil {
			return err
		}
	}
	return nil
}

// TransferTime is the simulated duration of moving size bytes at rate
// bits/second — the quantity behind the paper's start-up-time arithmetic
// (§9.3: 2–4 s for a 2–4 MB application at 1 MB/s).
func TransferTime(size int64, rate int64) time.Duration {
	if rate <= 0 {
		return 0
	}
	bits := size * 8
	return time.Duration(float64(bits) / float64(rate) * float64(time.Second))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
