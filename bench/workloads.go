package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"itv/internal/cluster"
	"itv/internal/mms"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/rds"
	"itv/internal/settop"
	"itv/internal/transport"
	"itv/internal/vod"
	"itv/internal/wire"
)

// workload is one set of inputs the benchmark runs.  Every workload is one
// closed-loop caller on one core: a settop's viewer waits for each
// response before pressing the next button.
type workload struct {
	name string
	// warmOps is the fixed number of ops every set-up ends with, so that
	// setup_s measures the same work on every run and caches are full
	// before timing starts.
	warmOps int
	// batch is how many ops run between two clock reads in the timed loop.
	batch int
	// smallLen and bulkBytes size the ladder rungs to this workload's own
	// payloads.
	smallLen  int
	bulkBytes int
	setup     func(seed int64) (*env, error)
}

// env is a workload set up and ready to run.
type env struct {
	// op performs operation i and reports whether its output was correct.
	op func(i int) bool
	// traced performs the same operation with one span per call into a
	// layer.
	traced func(i int, tr *tracer) bool
	// src reports the traffic of the caller's host.
	src transport.StatsSource
	// cl is the cluster the workload runs on (nil for rpc_small).
	cl *clusterEnv
	// ns is the name space the workload populated, if it did.
	ns    *nameSpace
	close func()
}

// clusterEnv is a started cluster plus the caller the harness drives it
// through.
type clusterEnv struct {
	c *cluster.Cluster
	// ep is the caller's endpoint (the settop's own, or the harness's
	// client); with EnableAuth it signs every call.
	ep *orb.Endpoint
	// slave is the address of the first name-service replica that is not
	// the master.  The election winner varies from start to start; pinning
	// the caller to a non-master keeps the write path (forward to the
	// master, push to both slaves) the same on every run.
	slave string
	st    *settop.Settop

	startMs, bootMs float64
	retries         int
}

var workloads = []*workload{
	{name: "rpc_small", warmOps: 120_000, batch: 64, smallLen: 32, bulkBytes: 1 << 20, setup: setupRPCSmall},
	{name: "name_mix", warmOps: 60_000, batch: 32, smallLen: 8, bulkBytes: 1 << 20, setup: setupNameMix},
	{name: "app_download", warmOps: 400, batch: 1, smallLen: 9, bulkBytes: 3 << 20, setup: setupAppDownload},
	{name: "movie_session", warmOps: 3_000, batch: 2, smallLen: 10, bulkBytes: 1 << 20, setup: setupMovieSession},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- cluster set-up ----

// startCluster builds and starts a cluster.  Start can panic with "no
// name-service master elected" when a slave has not yet heard the master;
// that is recovered, the half-started cluster stopped, and a fresh one
// tried, at most three more times.  startMs times only the attempt that
// succeeded.
func startCluster(cfg cluster.Config) (*clusterEnv, error) {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		t0 := wall.Now()
		c := cluster.New(cfg)
		if err = tryStart(c); err != nil {
			stopCluster(c)
			continue
		}
		ce := &clusterEnv{c: c, retries: attempt, startMs: ms(wall.Since(t0))}
		for _, s := range c.Servers {
			if r := s.NS(); r != nil && !r.IsMaster() {
				ce.slave = r.Addr()
				break
			}
		}
		if ce.slave == "" {
			stopCluster(c)
			err = fmt.Errorf("cluster has no non-master name-service replica")
			continue
		}
		return ce, nil
	}
	return nil, err
}

func tryStart(c *cluster.Cluster) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster start: %v", r)
		}
	}()
	c.Start()
	return nil
}

// stopCluster is Cluster.Stop for a cluster whose Start may have failed
// half-way, when some servers have no SSC yet.
func stopCluster(c *cluster.Cluster) {
	for _, st := range c.Settops() {
		st.Crash()
	}
	for _, s := range c.Servers {
		if s.SSC != nil {
			s.SSC.Close()
		}
	}
}

// bootSettop provisions and boots one settop in neighborhood 1 and makes
// it the cluster's caller.
func (ce *clusterEnv) bootSettop() error {
	t0 := wall.Now()
	st := ce.c.NewSettop("1", 0)
	if _, err := st.Boot(); err != nil {
		return fmt.Errorf("settop boot: %w", err)
	}
	ce.bootMs = ms(wall.Since(t0))
	ce.st = st
	ce.ep = st.Session().Ep
	return nil
}

// root is the root naming context on the non-master replica, called
// through the cluster's caller.
func (ce *clusterEnv) root() names.Context {
	return names.Context{Ep: ce.ep, Ref: names.RootRefAt(ce.slave)}
}

func (ce *clusterEnv) src(host string) transport.StatsSource {
	src, _ := ce.c.NW.Host(host).(transport.StatsSource)
	return src
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- rpc_small ----

// echoSkel is the harness's server object: "echo" returns its argument,
// "blob" the first n bytes of blob (the ladder's bulk rung).
type echoSkel struct{ blob []byte }

func (echoSkel) TypeID() string { return "bench.Echo" }
func (s echoSkel) Dispatch(c *orb.ServerCall) error {
	switch c.Method() {
	case "echo":
		c.Results().PutString(c.Args().String())
		return nil
	case "blob":
		c.Results().PutBytes(s.blob[:c.Args().Int()])
		return nil
	default:
		return orb.ErrNoSuchMethod
	}
}

// echoCaller holds the closures one echo call needs, built once so that
// the timed loop allocates nothing of its own.
type echoCaller struct {
	ep       names.Invoker
	ref      oref.Ref
	cur      string
	ok       bool
	put      func(*wire.Encoder)
	get      func(*wire.Decoder) error
	payloads []string
}

func newEchoCaller(ep names.Invoker, ref oref.Ref, rng *rand.Rand, size int) *echoCaller {
	c := &echoCaller{ep: ep, ref: ref, payloads: make([]string, 256)}
	for i := range c.payloads {
		c.payloads[i] = randomName(rng, size)
	}
	c.put = func(e *wire.Encoder) { e.PutString(c.cur) }
	c.get = func(d *wire.Decoder) error { c.ok = d.String() == c.cur; return nil }
	return c
}

// call echoes payload i and checks that it came back unchanged.
func (c *echoCaller) call(i int) bool {
	c.cur = c.payloads[i&255]
	c.ok = false
	return c.ep.Invoke(c.ref, "echo", c.put, c.get) == nil && c.ok
}

func randomName(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// setupRPCSmall: unsigned 32-byte echo calls from one client endpoint to
// one server endpoint over memnet, no cluster.  wire, orb and transport do
// all the work; names, auth and every service do none.
func setupRPCSmall(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	nw := transport.NewNetwork()
	server, err := orb.NewEndpoint(nw.Host("192.168.0.1"))
	if err != nil {
		return nil, err
	}
	clientTr := nw.Host("10.1.0.5")
	client, err := orb.NewEndpoint(clientTr)
	if err != nil {
		server.Close()
		return nil, err
	}
	caller := newEchoCaller(client, server.Register("", echoSkel{}), rng, 32)
	e := &env{
		op:    caller.call,
		close: func() { client.Close(); server.Close() },
	}
	e.traced = func(i int, tr *tracer) bool {
		s := tr.begin(spOrbInvoke)
		ok := caller.call(i)
		tr.end(s)
		return ok
	}
	e.src, _ = clientTr.(transport.StatsSource)
	return e, nil
}

// ---- name_mix ----

// The name-service op kinds and their exact shares of the mix.  The seed
// shuffles the order, not the proportions, so the mix costs the same on
// every seed.
const (
	opFlat  = iota // resolve a one-component name
	opDeep         // resolve a three-component name
	opRepl         // resolve through a round-robin ReplicatedContext
	opList         // list a context of 8 bindings
	opWrite        // bind then unbind: forwarded to the master, pushed to both slaves
	numNameOps
)

var nameOpShare = [numNameOps]int{50, 20, 15, 10, 5}
var nameOpSpan = [numNameOps]spanName{spResolveFlat, spResolveDeep, spResolveRepl, spList, spWritePair}

const nameSeqLen = 1 << 14

type nameOp struct {
	kind uint8
	idx  uint8
}

// nameSpace is the part of the name space the harness populates and the
// references it bound there.
type nameSpace struct {
	root      names.Context
	flat      []string
	flatRef   []oref.Ref
	deep      []string
	deepRef   []oref.Ref
	replRefs  map[oref.Ref]bool
	tmp       []string
	tmpRef    oref.Ref
	listCount int
}

const (
	replName = "bm-repl"
	listName = "bm-list"
)

// benchRef makes up a reference.  Every field has the same encoded width
// on every seed, so that the seed changes what is bound and never what
// binding it costs.
func benchRef(rng *rand.Rand, i int) oref.Ref {
	return oref.Ref{
		Addr:        fmt.Sprintf("192.168.9.%d:%d", 100+rng.Intn(100), 7000+i),
		Incarnation: 1<<62 | rng.Int63(),
		TypeID:      "bench.Obj",
		ObjectID:    randomName(rng, 6),
	}
}

// populate binds the harness's names through root and checks, by
// resolving each one on the same replica, that the update reached it.
func populate(root names.Context, rng *rand.Rand) (*nameSpace, error) {
	ns := &nameSpace{root: root, replRefs: make(map[oref.Ref]bool), listCount: 8}
	bind := func(name string, ref oref.Ref) error {
		if err := root.Bind(name, ref); err != nil {
			return fmt.Errorf("bind %s: %w", name, err)
		}
		return nil
	}
	newCtx := func(name string) error {
		if _, err := root.BindNewContext(name); err != nil {
			return fmt.Errorf("new context %s: %w", name, err)
		}
		return nil
	}
	for i := 0; i < 64; i++ {
		name, ref := "bm-"+randomName(rng, 5), benchRef(rng, i)
		if err := bind(name, ref); err != nil {
			return nil, err
		}
		ns.flat, ns.flatRef = append(ns.flat, name), append(ns.flatRef, ref)
	}
	if err := newCtx("bm-deep"); err != nil {
		return nil, err
	}
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("bm-deep/d%d", d)
		if err := newCtx(dir); err != nil {
			return nil, err
		}
		for i := 0; i < 16; i++ {
			name, ref := dir+"/"+randomName(rng, 5), benchRef(rng, 100+d*16+i)
			if err := bind(name, ref); err != nil {
				return nil, err
			}
			ns.deep, ns.deepRef = append(ns.deep, name), append(ns.deepRef, ref)
		}
	}
	if _, err := root.BindReplContext(replName, names.PolicyRoundRobin); err != nil {
		return nil, fmt.Errorf("new replicated context: %w", err)
	}
	for i := 0; i < 4; i++ {
		ref := benchRef(rng, 200+i)
		if err := bind(fmt.Sprintf("%s/r%d", replName, i), ref); err != nil {
			return nil, err
		}
		ns.replRefs[ref] = true
	}
	if err := newCtx(listName); err != nil {
		return nil, err
	}
	for i := 0; i < ns.listCount; i++ {
		if err := bind(fmt.Sprintf("%s/b%d", listName, i), benchRef(rng, 300+i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 16; i++ {
		ns.tmp = append(ns.tmp, fmt.Sprintf("bm-tmp%02d", i))
	}
	ns.tmpRef = benchRef(rng, 400)

	for kind := 0; kind < numNameOps; kind++ {
		for i := 0; i < 64; i++ {
			if !ns.do(nameOp{uint8(kind), uint8(i)}) {
				return nil, fmt.Errorf("name space not populated on the replica: op kind %d index %d failed", kind, i)
			}
		}
	}
	return ns, nil
}

// do performs one name-service op and checks its output: a resolve returns
// the reference bound there, a list returns its 8 bindings, a write pair
// succeeds twice.
func (ns *nameSpace) do(o nameOp) bool {
	switch o.kind {
	case opFlat:
		i := int(o.idx) % len(ns.flat)
		ref, err := ns.root.Resolve(ns.flat[i])
		return err == nil && ref == ns.flatRef[i]
	case opDeep:
		i := int(o.idx) % len(ns.deep)
		ref, err := ns.root.Resolve(ns.deep[i])
		return err == nil && ref == ns.deepRef[i]
	case opRepl:
		ref, err := ns.root.Resolve(replName)
		return err == nil && ns.replRefs[ref]
	case opList:
		bs, err := ns.root.List(listName)
		return err == nil && len(bs) == ns.listCount
	default:
		name := ns.tmp[int(o.idx)%len(ns.tmp)]
		if ns.root.Bind(name, ns.tmpRef) != nil {
			return false
		}
		return ns.root.Unbind(name) == nil
	}
}

// nameSequence is the pre-generated op sequence: exact shares, seeded
// order and indices.
func nameSequence(rng *rand.Rand) []nameOp {
	seq := make([]nameOp, 0, nameSeqLen)
	for kind, share := range nameOpShare {
		for n := nameSeqLen * share / 100; n > 0; n-- {
			seq = append(seq, nameOp{uint8(kind), uint8(rng.Intn(256))})
		}
	}
	for len(seq) < nameSeqLen {
		seq = append(seq, nameOp{opFlat, uint8(rng.Intn(256))})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// setupNameMix: name-service ops from one client against the first
// non-master replica of a 3-replica cluster.  names does most of the work,
// and it is the only workload with writes beside reads, so a read speed-up
// that costs the update path shows.
func setupNameMix(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	ce, err := startCluster(cluster.Orlando())
	if err != nil {
		return nil, err
	}
	const host = "10.1.0.9"
	ce.ep, err = orb.NewEndpoint(ce.c.NW.Host(host))
	if err != nil {
		stopCluster(ce.c)
		return nil, err
	}
	closeAll := func() { ce.ep.Close(); stopCluster(ce.c) }
	ns, err := populate(ce.root(), rng)
	if err != nil {
		closeAll()
		return nil, err
	}
	seq := nameSequence(rng)
	return &env{
		op: func(i int) bool { return ns.do(seq[i&(nameSeqLen-1)]) },
		traced: func(i int, tr *tracer) bool {
			o := seq[i&(nameSeqLen-1)]
			s := tr.begin(nameOpSpan[o.kind])
			ok := ns.do(o)
			tr.end(s)
			return ok
		},
		src:   ce.src(host),
		cl:    ce,
		ns:    ns,
		close: closeAll,
	}, nil
}

// ---- app_download ----

var appNames = [4]string{"navigator", "vod", "shopping", "games"}
var appMiB = [4]int{2, 3, 4, 3} // §9.3: applications are 2–4 MB

// setupAppDownload: Settop.ChangeChannel cycling four applications of
// seeded random bytes (random so a checksum means something and
// compression cannot flatter), auth off.  One settop RPC per op carrying
// megabytes: the bulk path of wire, orb, transport and the allocator
// dominates; names, cmgr and rds logic is one small call each.
func setupAppDownload(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := cluster.Orlando()
	cfg.Apps = make(map[string][]byte, len(appNames))
	var sums [4]uint32
	for i, name := range appNames {
		data := make([]byte, appMiB[i]<<20)
		rng.Read(data)
		cfg.Apps[name] = data
		sums[i] = crc32.ChecksumIEEE(data)
	}
	ce, err := startCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := ce.bootSettop(); err != nil {
		stopCluster(ce.c)
		return nil, err
	}
	st := ce.st
	// The simulated duration every later download must equal is that of
	// the app's first download.
	var first [4]time.Duration
	for i, name := range appNames {
		_, full, err := st.ChangeChannel(name)
		if err != nil {
			stopCluster(ce.c)
			return nil, fmt.Errorf("first download of %s: %w", name, err)
		}
		first[i] = full
	}
	rdsStub := rds.NewStub(st.Session())
	return &env{
		op: func(i int) bool {
			a := i & 3
			_, full, err := st.ChangeChannel(appNames[a])
			return err == nil && full == first[a] && st.CurrentApp() == appNames[a]
		},
		// The traced op performs the settop's steps itself, and since it
		// holds the payload it also checks its length and CRC-32.
		traced: func(i int, tr *tracer) bool {
			a := i & 3
			op := tr.begin(spOp)
			s := tr.begin(spRdsOpenData)
			data, _, err := rdsStub.OpenData(appNames[a])
			tr.end(s)
			tr.end(op)
			return err == nil && len(data) == appMiB[a]<<20 && crc32.ChecksumIEEE(data) == sums[a]
		},
		src:   ce.src(st.Host()),
		cl:    ce,
		close: func() { stopCluster(ce.c) },
	}, nil
}

// ---- movie_session ----

const titleSeqLen = 1 << 10

// setupMovieSession: OpenMovie, four PollPlayback, Pause, Play(-1),
// CloseMovie on a cluster with EnableAuth.  Fifteen small signed settop
// RPCs per op fanning out through mms, media, cmgr, vod and names; the
// only workload where auth and core.Rebinder work on every call, and
// where bytes per op are negligible.
func setupMovieSession(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := cluster.Orlando()
	cfg.EnableAuth = true
	ce, err := startCluster(cfg)
	if err != nil {
		return nil, err
	}
	if err := ce.bootSettop(); err != nil {
		stopCluster(ce.c)
		return nil, err
	}
	st := ce.st
	// Titles in equal shares, seeded order.
	movies := cfg.Servers[0].Movies
	titles := make([]string, titleSeqLen)
	for i := range titles {
		titles[i] = movies[i%len(movies)].Title
	}
	rng.Shuffle(len(titles), func(i, j int) { titles[i], titles[j] = titles[j], titles[i] })

	mmsStub, vodStub := mms.NewStub(st.Session()), vod.NewStub(st.Session())
	return &env{
		op: func(i int) bool {
			if st.OpenMovie(titles[i&(titleSeqLen-1)]) != nil {
				return false
			}
			ok := true
			for p := 0; p < 4; p++ {
				_, playing, err := st.PollPlayback()
				ok = ok && err == nil && playing
			}
			pb, open := st.Playback()
			ok = ok && open && pb.Movie.Pause() == nil && pb.Movie.Play(-1) == nil
			return st.CloseMovie() == nil && ok
		},
		// The traced op performs the settop's steps itself through the
		// service stubs, one span per call.
		traced: func(i int, tr *tracer) bool {
			title := titles[i&(titleSeqLen-1)]
			op := tr.begin(spOp)
			defer tr.end(op)

			s := tr.begin(spMmsOpen)
			movie, id, err := mmsStub.Open(title)
			tr.end(s)
			if err != nil {
				return false
			}
			s = tr.begin(spVodGetPosition)
			resume, saved, err := vodStub.GetPosition(title)
			tr.end(s)
			if err != nil || !saved {
				resume = 0
			}
			s = tr.begin(spMediaPlay)
			ok := movie.Play(resume) == nil
			tr.end(s)
			for p := 0; p < 4; p++ {
				s = tr.begin(spMediaPosition)
				pos, playing, err := movie.Position()
				tr.end(s)
				ok = ok && err == nil && playing
				s = tr.begin(spVodSavePosition)
				ok = vodStub.SavePosition(title, pos) == nil && ok
				tr.end(s)
			}
			s = tr.begin(spMediaPause)
			ok = movie.Pause() == nil && ok
			tr.end(s)
			s = tr.begin(spMediaPlay)
			ok = movie.Play(-1) == nil && ok
			tr.end(s)
			s = tr.begin(spVodForget)
			ok = vodStub.Forget(title) == nil && ok
			tr.end(s)
			s = tr.begin(spMmsClose)
			ok = mmsStub.Close(id) == nil && ok
			tr.end(s)
			return ok
		},
		src:   ce.src(st.Host()),
		cl:    ce,
		close: func() { stopCluster(ce.c) },
	}, nil
}
