// Package settop simulates the subscriber's settop computer (§3.1, §3.4):
// a diskless client that boots over the network, runs the Application
// Manager, downloads applications through the Reliable Delivery Service on
// channel changes, and plays movies through the MMS/MDS path.  Its user
// interface is a remote control; its owner expects TV semantics — instant
// response and no crashes (§3).
//
// The simulator exercises the client half of every recovery mechanism in
// the paper: cached references that rebind on failure (§8.2), playback
// that resumes on another MDS replica after a crash (§3.5.2), dual
// position tracking with the VOD service (§10.1.1), and heartbeats to the
// Settop Manager so the RAS can detect settop death (§7.2).
package settop

import (
	"fmt"
	"sync"
	"time"

	"itv/internal/atm"
	"itv/internal/auth"
	"itv/internal/bootsvc"
	"itv/internal/clock"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/mms"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/rds"
	"itv/internal/settopmgr"
	"itv/internal/transport"
	"itv/internal/vod"
)

// DefaultHeartbeatInterval paces settop heartbeats to the Settop Manager;
// it must be comfortably inside the manager's 10 s staleness bound.
const DefaultHeartbeatInterval = 3 * time.Second

// CoverLatency is the fixed time to put up cover (a still image or settop
// animation) on a channel change — the trick that meets the 0.5 s
// expectation while the real application downloads (§9.3).
const CoverLatency = 200 * time.Millisecond

// Credentials are the settop's provisioned authentication material.
type Credentials struct {
	// Principal is the settop's identity, e.g. "settop/10.3.0.17".
	Principal string
	// Key is the enrolled secret shared with the authentication service.
	Key []byte
	// AuthService is the "host:port" of the authentication service.
	AuthService string
}

// Playback is the settop's view of an in-progress movie.
type Playback struct {
	Title    string
	MovieID  string
	Movie    media.Movie
	Position int64 // last observed byte position (the settop's own copy, §10.1.1)
}

// Settop is one simulated settop.
type Settop struct {
	tr       transport.Transport
	clk      clock.Clock
	host     string
	bootAddr string

	// HeartbeatInterval paces liveness reports.
	HeartbeatInterval time.Duration
	// Credentials, when set, make the settop sign every call (§3.3: calls
	// are signed by default).  They model the secret provisioned into the
	// settop hardware at enrollment.
	Credentials *Credentials

	mu       sync.Mutex
	ep       *orb.Endpoint
	fetchEp  *orb.Endpoint
	sess     *core.Session
	params   bootsvc.Params
	kernel   []byte
	rdsStub  rds.Stub
	mmsStub  mms.Stub
	vodStub  vod.Stub
	app      string
	appBuf   []byte // the running application's memory; the next download replaces it
	playback *Playback
	booted   bool
	beats    *clock.Loop // heartbeats to every server's Settop Manager
}

// New creates a powered-off settop at the given host.  bootAddr is the
// head-end boot-service address the hardware is provisioned with.
func New(tr transport.Transport, clk clock.Clock, bootAddr string) *Settop {
	return &Settop{
		tr:                tr,
		clk:               clk,
		host:              tr.Host(),
		bootAddr:          bootAddr,
		HeartbeatInterval: DefaultHeartbeatInterval,
	}
}

// Host returns the settop's IP.
func (s *Settop) Host() string { return s.host }

// Neighborhood returns the settop's neighborhood, derived from its IP.
func (s *Settop) Neighborhood() string { return names.NeighborhoodOf(s.host) }

// Boot powers the settop on (§3.4.1): fetch boot parameters and the
// kernel, build the OCS session from the delivered name-service address,
// and start heartbeating.  It returns the simulated boot duration.
func (s *Settop) Boot() (time.Duration, error) {
	s.mu.Lock()
	if s.booted {
		s.mu.Unlock()
		return 0, fmt.Errorf("settop %s: already booted", s.host)
	}
	s.mu.Unlock()

	ep, err := orb.NewEndpoint(s.tr)
	if err != nil {
		return 0, err
	}
	// The boot-parameter fetch is the one pre-credential exchange (the
	// boot service admits anonymous callers); everything after it is
	// signed when credentials are provisioned.
	params, err := bootsvc.BootParams(ep, s.bootAddr)
	if err != nil {
		ep.Close()
		return 0, err
	}
	var fetchEp *orb.Endpoint
	if s.Credentials != nil {
		// A dedicated plain endpoint performs the ticket-granting
		// exchange; the main endpoint signs every call with the session
		// key (§3.3).
		fetchEp, err = orb.NewEndpoint(s.tr)
		if err != nil {
			ep.Close()
			return 0, err
		}
		authRef := oref.Persistent(s.Credentials.AuthService, auth.TypeID, "")
		stub := &auth.Stub{Ep: fetchEp, Ref: authRef}
		principal := s.Credentials.Principal
		ep.SetAuthenticator(auth.NewSigner(principal, s.Credentials.Key, s.clk,
			func() ([]byte, []byte, error) { return stub.IssueTicket(principal) }))
	}
	sess := core.NewSession(ep, names.RootRefAt(params.NameService), s.clk)
	if len(params.Servers) > 1 {
		// The assigned replica can die with its server; the replicated
		// name space makes context references position-independent, so
		// name-service calls fail over across the boot-delivered server
		// list (§4.6).
		addrs := []string{params.NameService}
		for _, h := range params.Servers {
			a := fmt.Sprintf("%s:%d", h, names.WellKnownPort)
			if a != params.NameService {
				addrs = append(addrs, a)
			}
		}
		sess.Root.Failover = names.NewFailover(addrs)
	}

	kernelRb := sess.Service(bootsvc.KernelName)
	kernel, err := bootsvc.FetchKernel(kernelRb)
	if err != nil {
		ep.Close()
		return 0, err
	}

	s.mu.Lock()
	s.ep = ep
	s.fetchEp = fetchEp
	s.sess = sess
	s.params = params
	s.kernel = kernel
	s.rdsStub = rds.NewStub(sess)
	s.mmsStub = mms.NewStub(sess)
	s.vodStub = vod.NewStub(sess)
	s.booted = true
	s.beats = s.heartbeat(ep, params)
	s.mu.Unlock()

	// Simulated boot time: kernel transfer at the nominal download rate.
	return atm.TransferTime(int64(len(kernel)), rds.DefaultDownloadRate), nil
}

// Up reports whether the settop is booted.
func (s *Settop) Up() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.booted
}

// Session exposes the settop's OCS session (applications run on it).
func (s *Settop) Session() *core.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess
}

// heartbeat starts beating to every boot-delivered server's Settop
// Manager: once at boot, then every HeartbeatInterval.
func (s *Settop) heartbeat(ep *orb.Endpoint, params bootsvc.Params) *clock.Loop {
	servers := append([]string(nil), params.Servers...)
	if len(servers) == 0 {
		servers = []string{hostOf(params.NameService)}
	}
	stubs := make([]settopmgr.Stub, 0, len(servers))
	for _, h := range servers {
		stubs = append(stubs, settopmgr.Stub{Ep: ep, Ref: settopmgr.RefAt(h)})
	}
	return clock.Every(s.clk, s.HeartbeatInterval, true, func(time.Time) {
		for _, st := range stubs {
			_ = st.Heartbeat()
		}
	})
}

// Crash powers the settop off abruptly: heartbeats stop, its endpoint
// dies, and the resources it held are left for the RAS/MMS to reclaim
// (§3.5.1).
func (s *Settop) Crash() {
	s.mu.Lock()
	if !s.booted {
		s.mu.Unlock()
		return
	}
	s.booted = false
	beats, ep, fetchEp := s.beats, s.ep, s.fetchEp
	s.beats = nil
	s.ep = nil
	s.fetchEp = nil
	s.sess = nil
	s.playback = nil
	s.app = ""
	s.appBuf = nil
	s.mu.Unlock()
	beats.Stop()
	ep.Close()
	if fetchEp != nil {
		fetchEp.Close()
	}
}

// DownloadApp fetches an application through the RDS (Fig. 3) and returns
// the simulated download duration.  The RDS reference is cached by the
// rebinder: only the first download touches the name service (§3.4.2).
//
// A settop has one application memory and the new application is loaded
// over the old one, so downloads stop allocating once that memory has held
// the largest application.  The buffer is lent to the stub for the call; a
// concurrent download finds none and allocates its own.
func (s *Settop) DownloadApp(name string) (time.Duration, error) {
	s.mu.Lock()
	stub := s.rdsStub
	booted := s.booted
	buf := s.appBuf
	s.appBuf = nil
	s.mu.Unlock()
	if !booted {
		return 0, fmt.Errorf("settop %s: not booted", s.host)
	}
	data, rate, err := stub.OpenDataInto(name, buf)
	s.mu.Lock()
	if err != nil {
		s.appBuf = buf
		s.mu.Unlock()
		return 0, err
	}
	s.app = name
	s.appBuf = data
	s.mu.Unlock()
	return atm.TransferTime(int64(len(data)), rate), nil
}

// CurrentApp returns the running application's name.
func (s *Settop) CurrentApp() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.app
}

// ChangeChannel tunes to an application channel: cover appears within
// CoverLatency while the application downloads behind it (§9.3).  Both
// latencies are returned.
func (s *Settop) ChangeChannel(appName string) (cover, full time.Duration, err error) {
	dl, err := s.DownloadApp(appName)
	if err != nil {
		return 0, 0, err
	}
	return CoverLatency, CoverLatency + dl, nil
}

// OpenMovie opens and starts a movie through the MMS (Fig. 4), resuming
// from any position the VOD service has for this settop (§10.1.1 — the
// service-side copy covers a settop reboot).
func (s *Settop) OpenMovie(title string) error {
	s.mu.Lock()
	mmsStub, vodStub := s.mmsStub, s.vodStub
	booted := s.booted
	s.mu.Unlock()
	if !booted {
		return fmt.Errorf("settop %s: not booted", s.host)
	}
	movie, id, err := mmsStub.Open(title)
	if err != nil {
		return err
	}
	var resume int64
	if pos, ok, err := vodStub.GetPosition(title); err == nil && ok {
		resume = pos
	}
	if err := movie.Play(resume); err != nil {
		_ = mmsStub.Close(id)
		return err
	}
	s.mu.Lock()
	s.playback = &Playback{Title: title, MovieID: id, Movie: movie, Position: resume}
	s.mu.Unlock()
	return nil
}

// Playback returns a copy of the current playback state.
func (s *Settop) Playback() (Playback, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.playback == nil {
		return Playback{}, false
	}
	return *s.playback, true
}

// PollPlayback observes the stream like a viewer's decoder: it reads the
// position, keeps the settop's local copy, and checkpoints it with the VOD
// service.  A dead movie reference is reported so the application can run
// the §3.5.2 recovery.
func (s *Settop) PollPlayback() (int64, bool, error) {
	s.mu.Lock()
	pb := s.playback
	vodStub := s.vodStub
	s.mu.Unlock()
	if pb == nil {
		return 0, false, fmt.Errorf("settop %s: nothing playing", s.host)
	}
	pos, playing, err := pb.Movie.Position()
	if err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	if s.playback != nil {
		s.playback.Position = pos
	}
	s.mu.Unlock()
	_ = vodStub.SavePosition(pb.Title, pos)
	return pos, playing, nil
}

// RecoverPlayback runs the §3.5.2 client recovery after the application
// notices delivery stopped: close the original movie and ask the MMS to
// open it again, resuming from the settop's local position (§10.1.1 — the
// settop-side copy covers a service failure).
func (s *Settop) RecoverPlayback() error {
	s.mu.Lock()
	pb := s.playback
	mmsStub := s.mmsStub
	s.mu.Unlock()
	if pb == nil {
		return fmt.Errorf("settop %s: nothing to recover", s.host)
	}
	_ = mmsStub.Close(pb.MovieID) // best-effort: the MDS may be gone
	movie, id, err := mmsStub.Open(pb.Title)
	if err != nil {
		return err
	}
	if err := movie.Play(pb.Position); err != nil {
		_ = mmsStub.Close(id)
		return err
	}
	s.mu.Lock()
	s.playback = &Playback{Title: pb.Title, MovieID: id, Movie: movie, Position: pb.Position}
	s.mu.Unlock()
	return nil
}

// CloseMovie releases the current movie normally (§3.4.5).
func (s *Settop) CloseMovie() error {
	s.mu.Lock()
	pb := s.playback
	s.playback = nil
	mmsStub, vodStub := s.mmsStub, s.vodStub
	s.mu.Unlock()
	if pb == nil {
		return nil
	}
	_ = vodStub.Forget(pb.Title)
	return mmsStub.Close(pb.MovieID)
}

func hostOf(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[:i]
		}
	}
	return addr
}
