package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domains/relation"
	"hermes/internal/experiments"
	"hermes/internal/memo"
	"hermes/internal/netsim"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	fed "hermes/internal/workload"
)

// A workload is a seeded query stream plus the mediator it runs against.
// The program only ever sees the generated query text.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines: each sends
	// its next query only after the previous one has been drained.
	clients int
	// queries is the stream length of one round.
	queries int
	// subsetInvariants marks mediators whose CIM holds ⊇ invariants: a
	// partial serve deduplicates, so for this workload a query whose
	// answer multiset differs from the reference still passes when the
	// answer sets agree (the documented set-semantics exception).
	subsetInvariants bool
	stream           func(seed int64, n int) []string
	// build sets up the measured mediator. With a non-nil tracer, every
	// source is wrapped in a timing decorator.
	build func(seed int64, tr *tracer) (*node, error)
	// reference builds a mediator over identical data with the CIM
	// disabled, the memo off and parallelism 1.
	reference func(seed int64) (*node, error)
}

// node is a built mediator plus what the traced pass reads from it.
type node struct {
	sys *core.System
	// admit runs each query the way hermesd's /query handler does: an
	// admitted session and QueryTracedCtx. Otherwise queries take the
	// embedded-library path, Optimize then ExecuteCtx.
	admit bool
	// wire counts loopback bytes (traced mount only).
	wire  *countingListener
	close func()
}

func (n *node) Close() {
	if n.close != nil {
		n.close()
	}
}

var workloads = []*workload{ropeRepeat, federationJoin, mountLoopback}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- rope_repeat -----------------------------------------------------------

// ropeTemplate is one appendix query shape with its frame window; render
// with a variable suffix gives α-variants of the same logical query.
type ropeTemplate struct {
	kind int
	f, l int
}

func (q ropeTemplate) render(sfx string) string {
	switch q.kind {
	case 0:
		return fmt.Sprintf("?- query1(%d, %d, Object%s, Size%s).", q.f, q.l, sfx, sfx)
	case 1:
		return fmt.Sprintf("?- query1p(%d, %d, Object%s, Size%s).", q.f, q.l, sfx, sfx)
	case 2:
		return fmt.Sprintf("?- query2(%d, %d, Object%s, Frames%s, Actor%s).", q.f, q.l, sfx, sfx, sfx)
	case 3:
		return fmt.Sprintf("?- query2p(%d, %d, Object%s, Frames%s, Actor%s).", q.f, q.l, sfx, sfx, sfx)
	case 4:
		return fmt.Sprintf("?- query3(%d, %d, Object%s, Actor%s).", q.f, q.l, sfx, sfx)
	default:
		return fmt.Sprintf("?- query4(%d, %d, Object%s, Actor%s).", q.f, q.l, sfx, sfx)
	}
}

// deck deals 0..n-1 in a fresh shuffled order each time round, so every
// stretch of n draws holds each value once and the streams of different
// seeds have the same make-up; only the order and the free parameters vary.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}

// ropeStream has the differential harness's shape: 11 queries in every 20
// (55%) repeat an earlier one, every other repeat α-renamed; fresh queries
// deal the six appendix templates with a seeded frame window over rope's
// 160 frames.
func ropeStream(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	slots, kinds := newDeck(rng, 20), newDeck(rng, 6)
	var hist []ropeTemplate
	out := make([]string, 0, n)
	repeats := 0
	for len(out) < n {
		if slots.next() < 11 && len(hist) > 0 {
			q := hist[rng.Intn(len(hist))]
			sfx := ""
			if repeats++; repeats%2 == 0 {
				sfx = fmt.Sprintf("R%d", repeats/2)
			}
			out = append(out, q.render(sfx))
			continue
		}
		q := ropeTemplate{kind: kinds.next(), f: rng.Intn(100)}
		q.l = min(q.f+5+rng.Intn(60), 159)
		hist = append(hist, q)
		out = append(out, q.render(""))
	}
	return out
}

var ropeRepeat = &workload{
	name:             "rope_repeat",
	clients:          1,
	queries:          1500,
	subsetInvariants: true,
	stream:           ropeStream,
	build: func(seed int64, tr *tracer) (*node, error) {
		mc := memo.DefaultConfig()
		tb, err := experiments.NewTestbed(experiments.TestbedOptions{
			WithInvariants: true,
			RouteViaCIM:    true,
			Seed:           uint64(seed) + 1,
			Parallelism:    runtime.GOMAXPROCS(0),
			Memo:           &mc,
		})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			// The testbed registered its sources already; swap each for a
			// decorated one in the registry. Estimators stay connected.
			for _, name := range []string{"avis", "ingres"} {
				d, ok := tb.Sys.Registry.Get(name)
				if !ok {
					return nil, fmt.Errorf("testbed has no %s domain", name)
				}
				tb.Sys.Registry.Register(decorate(d, "source", tr))
			}
		}
		return &node{sys: tb.Sys}, nil
	},
	reference: func(seed int64) (*node, error) {
		tb, err := experiments.NewTestbed(experiments.TestbedOptions{
			DisableCIM:  true,
			Seed:        uint64(seed) + 1,
			Parallelism: 1,
		})
		if err != nil {
			return nil, err
		}
		return &node{sys: tb.Sys}, nil
	},
}

// --- federation_join -------------------------------------------------------

var joinFederation = fed.FederationConfig{
	Videos: 8, FramesMin: 300, FramesMax: 900, ObjectsMax: 30,
	Tables: 6, RowsMax: 60, Seed: 1996,
}

const joinProgram = `
	objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
	row(T, K, V) :- in(P, rel:all(T)) & =(P.k, K) & =(P.v, V).
`

// joinWindow is one of the workload's fixed AVIS frame windows.
type joinWindow struct {
	video string
	f, l  int
}

// joinWindows are four fixed windows per video, the same for every seed,
// so the source-call working set is fixed and fits the caches.
func joinWindows() []joinWindow {
	rng := rand.New(rand.NewSource(joinFederation.Seed))
	var out []joinWindow
	for v := 0; v < joinFederation.Videos; v++ {
		for k := 0; k < 4; k++ {
			f := rng.Intn(joinFederation.FramesMin / 2)
			out = append(out, joinWindow{video: fmt.Sprintf("video%02d", v), f: f, l: f + 60 + rng.Intn(120)})
		}
	}
	return out
}

// joinStream joins one fixed window with one table; only the comparison
// threshold is fresh, so after warm-up every source call is a cache or
// memo replay and the work is the join itself.
func joinStream(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	wins := joinWindows()
	winDeck, tables := newDeck(rng, len(wins)), newDeck(rng, joinFederation.Tables)
	out := make([]string, n)
	for i := range out {
		w := wins[winDeck.next()]
		out[i] = fmt.Sprintf("?- objs('%s', %d, %d, O) & row('table%02d', K, V) & V > %d.",
			w.video, w.f, w.l, tables.next(), 300+rng.Intn(500))
	}
	return out
}

func joinSystem(opts core.Options, tr *tracer) (*node, error) {
	store, rel := fed.Federation(joinFederation)
	sys := core.NewSystem(opts)
	for _, d := range []domain.Domain{store, rel} {
		if tr != nil {
			d = decorate(d, "source", tr)
		}
		sys.Register(d)
	}
	if err := sys.LoadProgram(joinProgram); err != nil {
		return nil, err
	}
	return &node{sys: sys}, nil
}

var federationJoin = &workload{
	name:    "federation_join",
	clients: 1,
	queries: 1000,
	stream:  joinStream,
	build: func(seed int64, tr *tracer) (*node, error) {
		// The embedded-library defaults plus the memo: no observer, a
		// virtual clock, the default CIM routing every domain.
		mc := memo.DefaultConfig()
		return joinSystem(core.Options{Memo: &mc}, tr)
	},
	reference: func(seed int64) (*node, error) {
		return joinSystem(core.Options{DisableCIM: true, Parallelism: 1}, nil)
	},
}

// --- mount_loopback --------------------------------------------------------

var mountFederation = fed.FederationConfig{Tables: 4, RowsMax: 4000, Seed: 417}

// mountRows is the mean answer count a range query aims for.
const mountRows = 200

const mountProgram = `
	rows(T, Lo, Hi, K, V) :- in(P, rel:range_(T, 'v', Lo, Hi)) & =(P.k, K) & =(P.v, V).
`

// mountLink models the loopback hop on the mediator's virtual clock, so
// the simulated Tf/Ta of a mounted call include transfer; the real bytes
// still cross the real socket.
var mountLink = netsim.Profile{Name: "loopback", Connect: 2 * time.Millisecond,
	RTT: 400 * time.Microsecond, PerTuple: 20 * time.Microsecond,
	BytesPerSec: 100 << 20, JitterFrac: 0.2}

func mountData() *relation.DB {
	_, rel := fed.Federation(mountFederation)
	// The server runs on a wall clock: nonzero compute costs would sleep.
	rel.SetCostParams(relation.CostParams{})
	return rel
}

// mountStream draws fresh (never repeated) range selections sized to
// return about mountRows rows from the chosen table.
func mountStream(seed int64, n int) []string {
	rel := mountData()
	sizes := make([]int, mountFederation.Tables)
	for i := range sizes {
		t, _ := rel.Table(fmt.Sprintf("table%02d", i))
		sizes[i] = t.Len()
	}
	rng := rand.New(rand.NewSource(seed))
	tables := newDeck(rng, len(sizes))
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		t := tables.next()
		width := min(mountRows*1000/sizes[t], 600)
		width = width/2 + rng.Intn(width+1)
		lo := rng.Intn(1000 - width)
		q := fmt.Sprintf("?- rows('table%02d', %d, %d, K, V).", t, lo, lo+width)
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

var mountLoopback = &workload{
	name:    "mount_loopback",
	clients: 2,
	queries: 1000,
	stream:  mountStream,
	build: func(seed int64, tr *tracer) (*node, error) {
		srvReg := domain.NewRegistry()
		var hosted domain.Domain = mountData()
		if tr != nil {
			hosted = decorate(hosted, "remote.serve", tr)
		}
		srvReg.Register(hosted)
		srv := remote.NewServer(srvReg)
		srv.Logf = func(string, ...any) {}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var wire *countingListener
		if tr != nil {
			wire = &countingListener{Listener: l}
			l = wire
		}
		var serving sync.WaitGroup
		serving.Add(1)
		go func() {
			defer serving.Done()
			_ = srv.Serve(l) // returns once stop closes the server
		}()

		client := remote.NewClient(l.Addr().String(), "rel")
		var mount domain.Domain = client
		if tr != nil {
			mount = decorate(mount, "remote.call", tr)
		}
		mount = netsim.Wrap(mount, mountLink, netsim.WithSeed(uint64(seed)+1))

		// Configured like hermesd's /query mediator, on the virtual clock,
		// with the statistics window bounded.
		pol := resilience.DefaultPolicy()
		ccfg := cim.DefaultConfig()
		mc := memo.DefaultConfig()
		dcfg := dcsm.DefaultConfig()
		dcfg.MaxRecordsPerCall = 256
		sys := core.NewSystem(core.Options{
			Obs:                obs.NewObserver(),
			Resilience:         &pol,
			CIM:                &ccfg,
			DCSM:               &dcfg,
			Memo:               &mc,
			CalInflateQuantile: 0.9,
			ColdStartInflation: 1.5,
		})
		sys.Register(mount)
		stop := func() {
			client.Close()
			srv.Close()
			serving.Wait()
		}
		if err := sys.LoadProgram(mountProgram); err != nil {
			stop()
			return nil, err
		}
		// Open the v2 session now, so the first timed query does not pay
		// for the dial.
		if _, err := client.FunctionsErr(); err != nil {
			stop()
			return nil, err
		}
		return &node{sys: sys, admit: true, wire: wire, close: stop}, nil
	},
	reference: func(seed int64) (*node, error) {
		sys := core.NewSystem(core.Options{DisableCIM: true, Parallelism: 1})
		sys.Register(mountData())
		if err := sys.LoadProgram(mountProgram); err != nil {
			return nil, err
		}
		return &node{sys: sys}, nil
	},
}
