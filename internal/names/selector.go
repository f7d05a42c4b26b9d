package names

import (
	"hash/fnv"
	"strings"
	"sync"

	"itv/internal/orb"
	"itv/internal/wire"
)

// Built-in selector policies (§5.1).  The paper's deployment used two
// static, caller-IP-derived policies — per-neighborhood and per-server —
// which "proved adequate for almost all of our services"; the others are
// the generic policies the replicated-context mechanism makes trivial, and
// PolicyLoad (via the LoadSelector service) is the dynamic load balancing
// the paper leaves as future work (§11).
const (
	// PolicyFirst returns the lexicographically first binding.
	PolicyFirst = "first"
	// PolicyRoundRobin rotates through bindings per replica.
	PolicyRoundRobin = "roundrobin"
	// PolicyNeighborhood picks the binding whose name equals the caller's
	// neighborhood number, derived from the caller's IP (second octet of a
	// settop's 10.<nbhd>.x.y address) — §5.1's neighborhood selector.
	PolicyNeighborhood = "neighborhood"
	// PolicyServerAffinity picks the binding whose object lives on the
	// caller's own host — §5.1's per-server selector.
	PolicyServerAffinity = "serveraffinity"
	// PolicyHash picks a binding by stable hash of the caller's host, a
	// static spread when neighborhoods don't apply.
	PolicyHash = "hash"
)

// NeighborhoodOf derives a settop's neighborhood from its IP address
// (§3.1: "The neighborhood is determined by the settop's IP address").
// Settop addresses have the form 10.<neighborhood>.x.y; other addresses
// have no neighborhood and return "".
func NeighborhoodOf(host string) string {
	if !strings.HasPrefix(host, "10.") || strings.Count(host, ".") != 3 {
		return ""
	}
	nbhd, _, _ := strings.Cut(host[3:], ".")
	return nbhd
}

// selectLocal evaluates a built-in policy over sorted bindings.  rrState
// supplies per-context round-robin counters.
func selectLocal(policy string, bindings []Binding, callerHost string, rr *rrState, ctxID string) (Binding, error) {
	if len(bindings) == 0 {
		return Binding{}, orb.Errf(orb.ExcNotFound, "replicated context is empty")
	}
	switch policy {
	case PolicyRoundRobin:
		return bindings[rr.next(ctxID)%len(bindings)], nil
	case PolicyNeighborhood:
		nbhd := NeighborhoodOf(callerHost)
		for _, b := range bindings {
			if b.Name == nbhd {
				return b, nil
			}
		}
		return Binding{}, orb.Errf(orb.ExcNotFound, "no replica for neighborhood %q (caller %s)", nbhd, callerHost)
	case PolicyServerAffinity:
		for _, b := range bindings {
			if refHost(b.Ref.Addr) == callerHost {
				return b, nil
			}
		}
		return bindings[0], nil
	case PolicyHash:
		h := fnv.New32a()
		h.Write([]byte(callerHost))
		return bindings[int(h.Sum32())%len(bindings)], nil
	case PolicyFirst, "":
		return bindings[0], nil
	default:
		return Binding{}, orb.Errf(orb.ExcNotFound, "unknown selector policy %q", policy)
	}
}

func refHost(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// rrState holds per-context round-robin counters, local to each replica
// (selector state need not be replicated; any spread is a valid choice).
type rrState struct {
	mu sync.Mutex
	n  map[string]int
}

func newRRState() *rrState { return &rrState{n: make(map[string]int)} }

func (r *rrState) next(ctx string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.n[ctx]
	r.n[ctx] = v + 1
	return v
}

// ---- remote selector objects ----

// SelectorFunc adapts a Go function to the Selector IDL, for services that
// implement custom selection policies as their own objects (§4.5: "The
// implementation of Selector objects can be arbitrarily complex").
type SelectorFunc func(bindings []Binding, callerHost string) (string, error)

// TypeID implements orb.Skeleton.
func (SelectorFunc) TypeID() string { return TypeSelector }

// Dispatch implements orb.Skeleton.
func (f SelectorFunc) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "select" {
		return orb.ErrNoSuchMethod
	}
	bindings := Bindings(c.Args())
	callerHost := c.Args().String()
	chosen, err := f(bindings, callerHost)
	if err != nil {
		return err
	}
	c.Results().PutString(chosen)
	return nil
}

// LoadSelector is a dynamic load-balancing selector object: service
// replicas report their load, and select returns the least-loaded binding.
// This implements the paper's planned "more powerful selectors" (§11).
type LoadSelector struct {
	mu    sync.Mutex
	loads map[string]float64 // binding name -> reported load
}

// NewLoadSelector returns an empty load-based selector.
func NewLoadSelector() *LoadSelector {
	return &LoadSelector{loads: make(map[string]float64)}
}

// TypeID implements orb.Skeleton.
func (s *LoadSelector) TypeID() string { return TypeSelector }

// Dispatch implements orb.Skeleton: "select" chooses the least-loaded
// binding (unreported bindings count as idle); "report" records a
// replica's load.
func (s *LoadSelector) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "select":
		bindings := Bindings(c.Args())
		_ = c.Args().String() // callerHost unused by the load policy
		if len(bindings) == 0 {
			return orb.Errf(orb.ExcNotFound, "replicated context is empty")
		}
		s.mu.Lock()
		best := bindings[0]
		bestLoad := s.loads[best.Name]
		for _, b := range bindings[1:] {
			if l := s.loads[b.Name]; l < bestLoad {
				best, bestLoad = b, l
			}
		}
		// Account a unit of anticipated work so concurrent resolves spread
		// even before the next load report arrives.
		s.loads[best.Name]++
		s.mu.Unlock()
		c.Results().PutString(best.Name)
		return nil
	case "report":
		name := c.Args().String()
		load := c.Args().Float()
		s.mu.Lock()
		s.loads[name] = load
		s.mu.Unlock()
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// Report is the client-side helper for replicas reporting load.
func Report(ep Invoker, sel SelectorStub, name string, load float64) error {
	return ep.Invoke(sel.Ref, "report",
		func(e *wire.Encoder) { e.PutString(name); e.PutFloat(load) }, nil)
}
