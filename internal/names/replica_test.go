package names

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"itv/internal/orb"
	"itv/internal/oref"
)

func TestThreeReplicasElectOneMaster(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	// All replicas agree on the master address.
	c.waitFor("all replicas agree on master", func() bool {
		for _, r := range c.replicas {
			if r.MasterAddr() != m.Addr() {
				return false
			}
		}
		return true
	})
}

func TestUpdateReplicatedToSlaves(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	_ = m
	ref := svcRef("192.168.0.1:900", 7)
	if err := c.root(0).Bind("mms", ref); err != nil {
		t.Fatal(err)
	}
	// Every replica answers the lookup from local state.
	for i := range c.replicas {
		got, err := c.root(i).Resolve("mms")
		if err != nil {
			t.Fatalf("replica %d resolve: %v", i, err)
		}
		if got != ref {
			t.Fatalf("replica %d resolved %v", i, got)
		}
	}
}

func TestSlaveLocalReads(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	if err := c.root(0).Bind("svc-x", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}
	var slave *Replica
	for _, r := range c.replicas {
		if r != m {
			slave = r
			break
		}
	}
	// Resolve against the slave and confirm the master served no part of
	// it: the master's received-request counter must not move.
	before := m.ep.Stats().Received
	got, err := (Context{Ep: c.client, Ref: slave.RootRef()}).Resolve("svc-x")
	if err != nil {
		t.Fatal(err)
	}
	if got != svcRef("a:1", 1) {
		t.Fatalf("resolved %v", got)
	}
	if after := m.ep.Stats().Received; after != before {
		t.Fatalf("slave resolve contacted the master (%d -> %d requests)", before, after)
	}
}

func TestBindForwardedFromSlave(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()
	var slaveIdx int
	for i, r := range c.replicas {
		if r != m {
			slaveIdx = i
			break
		}
	}
	ref := svcRef("b:2", 3)
	if err := c.root(slaveIdx).Bind("via-slave", ref); err != nil {
		t.Fatal(err)
	}
	got, err := c.root(0).Resolve("via-slave")
	if err != nil || got != ref {
		t.Fatalf("resolve after forwarded bind: %v, %v", got, err)
	}
}

func TestMasterFailover(t *testing.T) {
	c := newNSCluster(t, 3)
	m1 := c.waitForMaster()
	if err := c.root(0).Bind("durable", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}

	m1.Close() // name-service master crashes

	var m2 *Replica
	c.waitFor("new master elected", func() bool {
		for _, r := range c.replicas {
			if r != m1 && r.IsMaster() {
				m2 = r
				return true
			}
		}
		return false
	})
	if m2 == m1 {
		t.Fatal("dead master still master")
	}
	// State survived (slaves were kept nearly up to date, §9.4).
	var surviving int
	for i, r := range c.replicas {
		if r == m1 {
			continue
		}
		surviving = i
		got, err := c.root(i).Resolve("durable")
		if err != nil || got != svcRef("a:1", 1) {
			t.Fatalf("replica %d lost state after failover: %v %v", i, got, err)
		}
	}
	// Updates work again through the new master.
	if err := c.root(surviving).Bind("post-failover", svcRef("b:1", 2)); err != nil {
		t.Fatalf("bind after failover: %v", err)
	}
}

func TestRestartedReplicaCatchesUp(t *testing.T) {
	c := newNSCluster(t, 3)
	c.waitForMaster()
	if err := c.root(0).Bind("before", svcRef("a:1", 1)); err != nil {
		t.Fatal(err)
	}

	// Crash a slave (or master — pick replica 2 and re-elect if needed).
	victim := c.replicas[2]
	victim.Close()
	c.waitForMaster()
	if err := c.root(0).Bind("during", svcRef("b:1", 2)); err != nil {
		// The bind may transiently fail while a new master settles.
		c.waitFor("bind during outage succeeds", func() bool {
			return c.root(0).Bind("during", svcRef("b:1", 2)) == nil
		})
	}

	// Restart it on the same address: it must pull a snapshot and serve
	// both old and new bindings; old persistent context refs keep working.
	peers := c.replicas[0].cfg.Peers
	r2, err := NewReplica(c.nw.Host(serverIP(2)), c.clk, Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[2] = r2
	root2 := Context{Ep: c.client, Ref: r2.RootRef()}
	c.waitFor("restarted replica caught up", func() bool {
		a, err1 := root2.Resolve("before")
		b, err2 := root2.Resolve("during")
		return err1 == nil && err2 == nil && a == svcRef("a:1", 1) && b == svcRef("b:1", 2)
	})
}

func TestMinorityCannotUpdate(t *testing.T) {
	c := newNSCluster(t, 3)
	m := c.waitForMaster()

	// Cut the two other servers: the master is now in a minority.
	for i := 0; i < 3; i++ {
		if c.replicas[i] != m {
			c.nw.Cut(serverIP(i))
		}
	}
	c.waitFor("master steps down without majority", func() bool {
		return !m.IsMaster()
	})
	// Updates are refused...
	err := (Context{Ep: c.client, Ref: m.RootRef()}).Bind("nope", svcRef("a:1", 1))
	if !orb.IsApp(err, orb.ExcUnavailable) && !orb.Dead(err) {
		t.Fatalf("minority bind err = %v, want Unavailable", err)
	}
	// ...but local reads still work (§4.6: any replica resolves locally).
	if _, err := (Context{Ep: c.client, Ref: m.RootRef()}).List(""); err != nil {
		t.Fatalf("minority read failed: %v", err)
	}

	// Heal the partition; a master re-emerges and updates resume.
	for i := 0; i < 3; i++ {
		c.nw.Restore(serverIP(i))
	}
	c.waitForMaster()
	c.waitFor("bind succeeds after heal", func() bool {
		err := (Context{Ep: c.client, Ref: m.RootRef()}).Bind("healed", svcRef("a:1", 1))
		return err == nil || orb.IsApp(err, orb.ExcAlreadyBound)
	})
}

// fakeChecker is a controllable StatusChecker standing in for the RAS.
type fakeChecker struct {
	mu   sync.Mutex
	dead map[string]bool // ref.Key() -> dead
}

func newFakeChecker() *fakeChecker { return &fakeChecker{dead: make(map[string]bool)} }

func (f *fakeChecker) kill(ref oref.Ref) {
	f.mu.Lock()
	f.dead[ref.Key()] = true
	f.mu.Unlock()
}

func (f *fakeChecker) CheckStatus(refs []oref.Ref) ([]bool, []uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	alive := make([]bool, len(refs))
	for i, r := range refs {
		alive[i] = !f.dead[r.Key()]
	}
	return alive, make([]uint64, len(refs)), nil
}

func TestAuditRemovesDeadObjects(t *testing.T) {
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	chk := newFakeChecker()
	m.SetChecker(chk)

	ref := svcRef("192.168.0.1:900", 1)
	if err := c.root(0).Bind("mms", ref); err != nil {
		t.Fatal(err)
	}
	chk.kill(ref)
	c.waitFor("dead object removed from name space (§4.7)", func() bool {
		_, err := c.root(0).Resolve("mms")
		return orb.IsApp(err, orb.ExcNotFound)
	})
}

// slowChecker reports ref dead, but only after the test has had its chance
// to act between the audit's snapshot of the name space and its eviction.
type slowChecker struct {
	dead           oref.Ref
	asked, proceed chan struct{}
}

func (s *slowChecker) CheckStatus(refs []oref.Ref) ([]bool, []uint64, error) {
	alive := make([]bool, len(refs))
	hit := false
	for i, r := range refs {
		alive[i] = !r.Equal(s.dead)
		hit = hit || r.Equal(s.dead)
	}
	if hit {
		s.asked <- struct{}{}
		<-s.proceed
	}
	return alive, make([]uint64, len(refs)), nil
}

// TestAuditDoesNotEvictAReboundName: the audit learns that the object bound
// at a name is dead, and before it acts the restarted service replaces the
// binding with its new incarnation (RegisterActive's unbind + bind).  The
// eviction is about the dead reference, not the name: the new binding must
// survive it.  Evicting by name lost the restarted replica's registration
// for good — "the restarted RDS never re-registers".
func TestAuditDoesNotEvictAReboundName(t *testing.T) {
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	old, restarted := svcRef("192.168.0.1:900", 1), svcRef("192.168.0.1:901", 2)
	if err := c.root(0).Bind("rds", old); err != nil {
		t.Fatal(err)
	}
	chk := &slowChecker{dead: old, asked: make(chan struct{}), proceed: make(chan struct{})}
	m.SetChecker(chk)

	// Drive the clock until an audit round is holding its verdict on old.
	waiting := make(chan struct{})
	go func() { <-chk.asked; close(waiting) }()
	c.waitFor("audit round in flight", func() bool {
		select {
		case <-waiting:
			return true
		default:
			return false
		}
	})
	if err := c.root(0).Unbind("rds"); err != nil {
		t.Fatal(err)
	}
	if err := c.root(0).Bind("rds", restarted); err != nil {
		t.Fatal(err)
	}
	close(chk.proceed) // the audit proceeds to evict "rds"

	// And any number of further rounds leave it alone.
	c.clk.Await(10*time.Second, 5, func() bool { return false })
	got, err := c.root(0).Resolve("rds")
	if err != nil || !got.Equal(restarted) {
		t.Fatalf("after the stale eviction the name resolves to %v, %v; want the restarted replica %v", got, err, restarted)
	}
}

func TestPrimaryBackupElectionViaNameService(t *testing.T) {
	// §5.2 end to end: primary binds first; the backup's bind fails while
	// the primary lives; auditing removes the dead primary's binding and
	// the backup's retry succeeds.
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	chk := newFakeChecker()
	m.SetChecker(chk)
	root := c.root(0)

	primary := svcRef("192.168.0.1:800", 1)
	backup := svcRef("192.168.0.2:800", 2)
	if err := root.Bind("svc-ha", primary); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("svc-ha", backup); !orb.IsApp(err, orb.ExcAlreadyBound) {
		t.Fatalf("backup bind err = %v, want AlreadyBound", err)
	}

	chk.kill(primary)
	c.waitFor("backup bind succeeds after primary death", func() bool {
		return root.Bind("svc-ha", backup) == nil
	})
	got, err := root.Resolve("svc-ha")
	if err != nil || got != backup {
		t.Fatalf("post-failover resolve = %v, %v", got, err)
	}
}

func TestAuditCoversReplicatedContextMembers(t *testing.T) {
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	chk := newFakeChecker()
	m.SetChecker(chk)
	root := c.root(0)
	if _, err := root.BindReplContext("mds", PolicyFirst); err != nil {
		t.Fatal(err)
	}
	r1, r2 := svcRef("a:1", 1), svcRef("b:1", 2)
	if err := root.Bind("mds/1", r1); err != nil {
		t.Fatal(err)
	}
	if err := root.Bind("mds/2", r2); err != nil {
		t.Fatal(err)
	}
	chk.kill(r1)
	c.waitFor("dead replica removed, selector picks survivor", func() bool {
		got, err := root.Resolve("mds")
		return err == nil && got == r2
	})
}

func TestStatusOf(t *testing.T) {
	c := newNSCluster(t, 1)
	m := c.waitForMaster()
	role, _, masterAddr, _, err := StatusOf(c.client, m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if role != "master" || masterAddr != m.Addr() {
		t.Fatalf("status = %s/%s", role, masterAddr)
	}
}

func TestConcurrentBindsSerialized(t *testing.T) {
	// Many clients race to bind the same name; exactly one wins (the
	// election primitive must hold under concurrency).
	c := newNSCluster(t, 3)
	c.waitForMaster()
	const n = 16
	var wg sync.WaitGroup
	wins := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := c.root(i%3).Bind("contested", svcRef(fmt.Sprintf("h%d:1", i), i))
			if err == nil {
				wins <- i
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	count := 0
	for range wins {
		count++
	}
	if count != 1 {
		t.Fatalf("%d concurrent binds won, want exactly 1", count)
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	// Random stores survive snapshot/restore byte-identically.
	f := func(names []string, replFlags []bool) bool {
		s := newStore()
		ctxIDs := []string{RootContextID}
		for i, name := range names {
			if name == "" || len(name) > 40 {
				continue
			}
			parent := ctxIDs[i%len(ctxIDs)]
			repl := i < len(replFlags) && replFlags[i]
			if i%2 == 0 {
				id := s.allocID()
				_, _, _, err := s.apply(&update{Op: opNewContext, Ctx: parent, Name: name, NewID: id, Repl: repl, Policy: PolicyFirst})
				if err == nil {
					ctxIDs = append(ctxIDs, id)
				}
			} else {
				_, _, _, _ = s.apply(&update{Op: opBind, Ctx: parent, Name: name,
					Ref: oref.Ref{Addr: "h:1", Incarnation: int64(i), TypeID: "t"}})
			}
		}
		snap := s.snapshot()
		restored, err := storeFromSnapshot(snap)
		if err != nil {
			return false
		}
		return string(restored.snapshot()) == string(snap)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverTimeBounded(t *testing.T) {
	// A coarse version of E4: after a master crash, a new master is
	// available within a small multiple of the election timeout.
	c := newNSCluster(t, 3)
	m1 := c.waitForMaster()
	start := c.clk.Now()
	m1.Close()
	c.waitFor("new master", func() bool {
		for _, r := range c.replicas {
			if r != m1 && r.IsMaster() {
				return true
			}
		}
		return false
	})
	elapsed := c.clk.Now().Sub(start)
	if elapsed > 30*time.Second {
		t.Fatalf("name-service failover took %v of simulated time", elapsed)
	}
}
