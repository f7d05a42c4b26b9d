// Package bootsvc implements the Boot Broadcast Service and the Kernel
// Broadcast Service (§3.3, §3.4.1): because settops are diskless, the
// kernel and the first application reach them through a secure broadcast,
// which also delivers basic configuration — above all the address of the
// name-service replica the settop is to use.
//
// Substitution note: real broadcast (one transmission, many receivers)
// needs a shared medium this simulation does not model; the services here
// answer per-settop fetches of the same broadcast content instead, which
// exercises the identical boot-time dependency order and payloads.  The
// "secure" part is preserved: boot parameters include the settop's
// enrolled secret, sealed so only that settop can read it (§3.4.1).
package bootsvc

import (
	"context"
	"sync"

	"itv/internal/core"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/wire"
)

// IDL interface names.
const (
	TypeBoot   = "itv.BootBroadcast"
	TypeKernel = "itv.KernelBroadcast"
)

// Names in the cluster name space.  The kernel service is primary/backup
// replicated (§8.1 lists it among the critical services).
const (
	BootName   = "svc/boot"
	KernelName = "svc/kernel"
)

// Params are a settop's boot parameters.
type Params struct {
	// NameService is the "host:port" of the name-service replica this
	// settop should use (§3.4.1).
	NameService string
	// Neighborhood is the settop's assigned neighborhood.
	Neighborhood string
	// Servers lists every server host; the settop heartbeats each one's
	// Settop Manager so that any server's RAS can answer for any settop.
	// (The trial's managers learned settop status from the distribution
	// plant; fan-out heartbeats are the simulation's equivalent.)
	Servers []string
	// SealedKey is the settop's enrolled secret, sealed under its
	// provisioning key; empty when the cluster runs without auth.
	SealedKey []byte
}

func (p *Params) MarshalWire(e *wire.Encoder) {
	e.PutString(p.NameService)
	e.PutString(p.Neighborhood)
	e.PutStrings(p.Servers)
	e.PutBytes(p.SealedKey)
}

func (p *Params) UnmarshalWire(d *wire.Decoder) {
	p.NameService = d.String()
	p.Neighborhood = d.String()
	p.Servers = d.Strings()
	p.SealedKey = d.Bytes()
}

// BootService answers boot-parameter requests.  The mapping from settop to
// name-service replica is per-neighborhood: a settop is pointed at the
// replica on the server responsible for its neighborhood.
type BootService struct {
	sess *core.Session

	mu       sync.Mutex
	byNbhd   map[string]Params // neighborhood -> params template
	fallback Params
}

// NewBoot builds the boot broadcast service.
func NewBoot(sess *core.Session) *BootService {
	s := &BootService{sess: sess, byNbhd: make(map[string]Params)}
	sess.Ep.Register("boot", &bootSkel{s: s})
	return s
}

// Ref returns the service object's reference.
func (s *BootService) Ref() oref.Ref { return s.sess.Ep.RefFor("boot") }

// SetNeighborhood installs the boot parameters for one neighborhood.
func (s *BootService) SetNeighborhood(nbhd string, p Params) {
	p.Neighborhood = nbhd
	s.mu.Lock()
	s.byNbhd[nbhd] = p
	s.mu.Unlock()
}

// SetFallback installs parameters for settops in unassigned neighborhoods.
func (s *BootService) SetFallback(p Params) {
	s.mu.Lock()
	s.fallback = p
	s.mu.Unlock()
}

// ParamsFor returns the boot parameters for a settop host.
func (s *BootService) ParamsFor(settopHost string) (Params, error) {
	nbhd := neighborhoodOf(settopHost)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.byNbhd[nbhd]; ok {
		return p, nil
	}
	if s.fallback.NameService != "" {
		p := s.fallback
		p.Neighborhood = nbhd
		return p, nil
	}
	return Params{}, orb.Errf(orb.ExcNotFound, "no boot parameters for neighborhood %q", nbhd)
}

func neighborhoodOf(host string) string { return names.NeighborhoodOf(host) }

type bootSkel struct{ s *BootService }

func (k *bootSkel) TypeID() string { return TypeBoot }

func (k *bootSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "bootParams" {
		return orb.ErrNoSuchMethod
	}
	p, err := k.s.ParamsFor(c.Caller().Host())
	if err != nil {
		return err
	}
	p.MarshalWire(c.Results())
	return nil
}

// BootParams fetches boot parameters from the boot service at addr — the
// one address a settop must know a priori (its provisioned head end).
func BootParams(ep names.Invoker, bootAddr string) (Params, error) {
	var p Params
	ref := oref.Persistent(bootAddr, TypeBoot, "boot")
	err := ep.Invoke(ref, "bootParams", nil,
		func(d *wire.Decoder) error { p.UnmarshalWire(d); return nil })
	return p, err
}

// WellKnownPort is the boot service's fixed port (the head-end address
// settops are provisioned with).
const WellKnownPort = 554

// KernelService serves the settop kernel image; it is a critical service
// run primary/backup (§8.1).
type KernelService struct {
	sess   *core.Session
	mu     sync.Mutex
	kernel []byte
}

// NewKernel builds the kernel broadcast service.  image is held under the
// contract SetImage states.
func NewKernel(sess *core.Session, image []byte) *KernelService {
	s := &KernelService{sess: sess, kernel: image}
	sess.Ep.Register("kernel", &kernelSkel{s: s})
	return s
}

// Ref returns the service object's reference.
func (s *KernelService) Ref() oref.Ref { return s.sess.Ep.RefFor("kernel") }

// SetImage replaces the kernel image (an upgrade).  The service takes
// ownership of image and treats it as immutable: fetches send it straight
// from this slice (orb.ServerCall.PutBytesRef), possibly still after the
// next SetImage, so the caller must never write into it again.
func (s *KernelService) SetImage(image []byte) {
	s.mu.Lock()
	s.kernel = image
	s.mu.Unlock()
}

// Image returns the current kernel image.
func (s *KernelService) Image() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kernel
}

type kernelSkel struct{ s *KernelService }

func (k *kernelSkel) TypeID() string { return TypeKernel }

func (k *kernelSkel) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "kernel" {
		return orb.ErrNoSuchMethod
	}
	c.PutBytesRef(k.s.Image())
	return nil
}

// FetchKernel downloads the kernel through a rebinding proxy.  The image
// arrives in a slice of exactly its size that the caller keeps.
func FetchKernel(rb *core.Rebinder) ([]byte, error) {
	var img []byte
	err := rb.InvokeInto(context.Background(), "kernel", nil, nil,
		func(b []byte, _ *wire.Decoder) error { img = b; return nil })
	return img, err
}
