package cluster

import (
	"testing"
	"time"

	"itv/internal/orb"
)

// TestAuthenticatedCluster runs the full movie path with the §3.3 security
// model enabled: every call signed, unenrolled callers refused.
func TestAuthenticatedCluster(t *testing.T) {
	cfg := twoServers()
	cfg.EnableAuth = true
	c := startCluster(t, cfg)

	// An enrolled settop works end to end: boot-parameter fetch is
	// anonymous, everything after carries a ticket-keyed signature.
	st := bootSettop(t, c, "1", 0)
	if _, err := st.DownloadApp("navigator"); err != nil {
		t.Fatalf("signed download: %v", err)
	}
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatalf("signed movie open: %v", err)
	}
	play(c, 60*time.Second)
	if _, _, err := st.PollPlayback(); err != nil {
		t.Fatalf("signed playback poll: %v", err)
	}
	if err := st.CloseMovie(); err != nil {
		t.Fatal(err)
	}

	// An unenrolled, unsigned endpoint is refused by the name service.
	rogue, err := orb.NewEndpoint(c.NW.Host("10.1.0.99"))
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	err = rogue.Invoke(c.Servers[0].NS().RootRef(), "resolve", nil, nil)
	if !orb.IsApp(err, orb.ExcDenied) {
		t.Fatalf("unsigned resolve err = %v, want Denied", err)
	}

	// A settop with a stolen principal name but a forged key gets nowhere
	// past the anonymous boot exchange.
	imposter := c.NewSettop("1", 77)
	imposter.Credentials.Key = make([]byte, 32)
	if _, err := imposter.Boot(); err == nil {
		if _, err := imposter.DownloadApp("navigator"); err == nil {
			t.Fatal("imposter with forged key was served")
		}
	}
}

// TestAuthenticatedPrincipalVisible verifies the §3.3 claim that "the
// object can securely determine the identity of the caller": the VOD
// service keys saved positions by authenticated principal-bearing callers,
// and a settop reboot resumes from its own record.
func TestAuthenticatedPrincipalVisible(t *testing.T) {
	cfg := twoServers()
	cfg.EnableAuth = true
	c := startCluster(t, cfg)
	st := bootSettop(t, c, "1", 0)
	if err := st.OpenMovie("T2"); err != nil {
		t.Fatal(err)
	}
	play(c, 2*time.Minute)
	pos1, _, err := st.PollPlayback()
	if err != nil {
		t.Fatal(err)
	}
	st.Crash()
	waitFor(t, c, "reclaimed", func() bool { return c.Fabric.Conns() == 0 })
	waitFor(t, c, "reboot", func() bool { _, err := st.Boot(); return err == nil })
	waitFor(t, c, "reopen", func() bool { return st.OpenMovie("T2") == nil })
	pos2, _, err := st.PollPlayback()
	if err != nil {
		t.Fatal(err)
	}
	if pos2 < pos1 {
		t.Fatalf("resumed at %d, want >= %d (position keyed to the settop's identity)", pos2, pos1)
	}
}
