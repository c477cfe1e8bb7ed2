package nbody

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
)

func small() *App { return New(1_500, 2, 9) }

func TestSequentialDeterministic(t *testing.T) {
	if small().Sequential() != small().Sequential() {
		t.Fatalf("sequential checksum not deterministic")
	}
}

// TestSequentialChecksumIsPinned pins the Sequential checksum at the
// suite's small scale (4 000 bodies) and at suite.Medium (16 000) at two
// seeds: the x-sort in gen and the tree build must leave the bodies, and
// so every force and step, bit-identical. The suite.Medium values are
// amd64's; another architecture may fuse a multiply-add into one rounding.
func TestSequentialChecksumIsPinned(t *testing.T) {
	// want[seed]: small scale, then suite.Medium.
	want := map[int64][2]uint64{
		1: {0x1c0b2ff9f1c53314, 0xe525bf2f8237917a},
		2: {0x8d465321bc917e86, 0xa54634649157efa3},
	}
	for seed, w := range want {
		for i, n := range []int{4_000, 4_000 * 4} {
			if i == 1 && runtime.GOARCH != "amd64" {
				continue
			}
			if got := New(n, 2, seed).Sequential(); got != w[i] {
				t.Errorf("seed %d, %d bodies: checksum %#x, want %#x", seed, n, got, w[i])
			}
		}
	}
}

// buildOracle is the recursive build that build replaced, kept as its
// reference: the resident's child is appended before the newcomer's, so
// the node slab must come out equal node for node.
func buildOracle(bodies []Body) tree {
	t := tree{}
	t.nodes = append(t.nodes, newNode(0, 0, 1))
	for i := range bodies {
		oracleInsert(&t, 0, bodies, i, 0)
	}
	t.walk = make([]cell, 0, len(t.nodes))
	t.summarize(0, bodies)
	return t
}

func oracleInsert(t *tree, ni int, bodies []Body, bi, depth int) {
	nd := &t.nodes[ni]
	nd.n++
	if nd.n == 1 {
		nd.body = bi
		return
	}
	if depth >= maxDepth {
		return
	}
	if nd.body >= 0 {
		old := nd.body
		nd.body = -1
		oracleInsert(t, oracleChild(t, ni, bodies[old]), bodies, old, depth+1)
	}
	oracleInsert(t, oracleChild(t, ni, bodies[bi]), bodies, bi, depth+1)
}

// oracleChild returns the child of ni holding b, appending it if missing.
func oracleChild(t *tree, ni int, b Body) int {
	q := t.nodes[ni].quadrant(b.X, b.Y)
	if t.nodes[ni].kids[q] == noKid {
		nd := t.nodes[ni]
		half := nd.size / 2
		t.nodes = append(t.nodes, newNode(nd.x+half*float64(q&1), nd.y+half*float64(q>>1), half))
		t.nodes[ni].kids[q] = int32(len(t.nodes) - 1)
	}
	return int(t.nodes[ni].kids[q])
}

// nearCoincident returns n bodies within a few ulps of (0.3, 0.3), some
// exactly coincident: their cells split down to maxDepth.
func nearCoincident(n int) []Body {
	bodies := make([]Body, n)
	x := 0.3
	for i := range bodies {
		if i%3 != 0 {
			x = math.Nextafter(x, 1)
		}
		bodies[i] = Body{X: x, Y: 0.3, M: 1 + float64(i)}
	}
	return bodies
}

// TestBuildMatchesOracle builds every step's tree of whole runs at 4 000
// and 16 000 bodies, seeds 1-3, and a near-coincident cloud, and checks
// that build's nodes equal the recursive oracle's one for one.
func TestBuildMatchesOracle(t *testing.T) {
	check := func(name string, bodies []Body) {
		t.Helper()
		got, want := build(bodies), buildOracle(bodies)
		if !slices.Equal(got.nodes, want.nodes) {
			t.Fatalf("%s: build's %d nodes differ from the oracle's %d", name, len(got.nodes), len(want.nodes))
		}
	}
	cloud := nearCoincident(20)
	check("near-coincident", cloud)
	if !slices.ContainsFunc(build(cloud).nodes, func(nd node) bool { return nd.body >= 0 && nd.n > 1 }) {
		t.Fatalf("near-coincident cloud reached no multi-body leaf at maxDepth")
	}
	for _, n := range []int{4_000, 16_000} {
		for seed := int64(1); seed <= 3; seed++ {
			a, step := New(n, 2, seed), 0
			a.run(func(tr *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
				check(fmt.Sprintf("%d bodies, seed %d, step %d", n, seed, step), bodies)
				step++
				for _, ch := range chunks {
					a.forceChunk(tr, bodies, ax, ay, ch[0], ch[1])
				}
			})
		}
	}
}

// TestBuildAllocs bounds build's allocations: the tree and its node slab,
// which the generated input never outgrows. The collector is off while it
// counts, since a cycle during a call adds the runtime's own allocations.
func TestBuildAllocs(t *testing.T) {
	bodies := New(16_000, 1, 1).gen()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(5, func() { build(bodies) }); got > 2 {
		t.Fatalf("build allocates %v times per call, want at most 2", got)
	}
}

// BenchmarkBuild times one tree build over the suite.Medium input (16 000
// bodies): the recursive oracle against build.
func BenchmarkBuild(b *testing.B) {
	bodies := New(16_000, 1, 1).gen()
	for _, k := range []struct {
		name  string
		build func([]Body) tree
	}{{"oracle", buildOracle}, {"build", build}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.build(bodies)
			}
		})
	}
}

// summary is a node's centre of mass as the recursive force read it.
type summary struct {
	cmx, cmy, mass float64
}

// summarizeOracle is the bottom-up pass that filled the centre-of-mass
// fields of the node slab before the walk array replaced them, indexed
// by node.
func summarizeOracle(t *tree, bodies []Body) []summary {
	sum := make([]summary, len(t.nodes))
	var rec func(ni int) (mass, mx, my float64)
	rec = func(ni int) (float64, float64, float64) {
		nd, s := &t.nodes[ni], &sum[ni]
		if nd.body >= 0 {
			b := bodies[nd.body]
			s.mass, s.cmx, s.cmy = b.M, b.X, b.Y
			return s.mass, s.cmx * s.mass, s.cmy * s.mass
		}
		var m, sx, sy float64
		for _, k := range nd.kids {
			if k == noKid {
				continue
			}
			km, kx, ky := rec(int(k))
			m += km
			sx += kx
			sy += ky
		}
		s.mass = m
		if m > 0 {
			s.cmx, s.cmy = sx/m, sy/m
		}
		return m, sx, sy
	}
	rec(0)
	return sum
}

// forceOracle is the recursive force that the preorder walk replaced,
// kept as its reference: it recurses through a closure over the node
// slab, children in quadrant order.
func forceOracle(t *tree, sum []summary, bodies []Body, bi int, theta float64) (float64, float64, int) {
	const soft = 1e-4
	b := bodies[bi]
	var ax, ay float64
	inter := 0
	var rec func(ni int)
	rec = func(ni int) {
		nd, s := &t.nodes[ni], &sum[ni]
		if nd.n == 0 || s.mass == 0 {
			return
		}
		dx, dy := s.cmx-b.X, s.cmy-b.Y
		d2 := dx*dx + dy*dy + soft
		if nd.body == bi && nd.n == 1 {
			return // self
		}
		if nd.body >= 0 || nd.size*nd.size < theta*theta*d2 {
			inv := 1 / (d2 * math.Sqrt(d2))
			ax += s.mass * dx * inv
			ay += s.mass * dy * inv
			inter++
			return
		}
		for _, k := range nd.kids {
			if k != noKid {
				rec(int(k))
			}
		}
	}
	rec(0)
	return ax, ay, inter
}

// matchOracle checks that force and forceOracle agree bit for bit, and in
// their interaction counts, for every body of bodies under tr.
func matchOracle(t *testing.T, name string, tr *tree, bodies []Body, theta float64) {
	t.Helper()
	sum := summarizeOracle(tr, bodies)
	for bi := range bodies {
		gx, gy, gn := tr.force(bodies, bi, theta)
		wx, wy, wn := forceOracle(tr, sum, bodies, bi, theta)
		if math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gy) != math.Float64bits(wy) || gn != wn {
			t.Fatalf("%s, body %d: walk (%v, %v, %d), recursion (%v, %v, %d)", name, bi, gx, gy, gn, wx, wy, wn)
		}
	}
}

// TestWalkMatchesRecursiveForce checks the preorder walk against the
// recursive force: every step of whole runs at 4 000 and 16 000 bodies,
// seeds 1-3; the near-coincident cloud, whose maxDepth leaf must not be
// skipped as self; systems with zero-mass bodies, whose cells the walk
// leaves out; and a θ that puts a cell exactly on the opening boundary,
// where the test is strict.
func TestWalkMatchesRecursiveForce(t *testing.T) {
	for _, n := range []int{4_000, 16_000} {
		for seed := int64(1); seed <= 3; seed++ {
			a, step := New(n, 2, seed), 0
			a.run(func(tr *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
				matchOracle(t, fmt.Sprintf("%d bodies, seed %d, step %d", n, seed, step), tr, bodies, theta)
				step++
				for _, ch := range chunks {
					a.forceChunk(tr, bodies, ax, ay, ch[0], ch[1])
				}
			})
		}
	}
	// At θ = 0.5 the softening accepts the cloud's cells long before its
	// maxDepth leaf; θ = 0 opens every inner cell down to it.
	cloud := nearCoincident(20)
	tr := build(cloud)
	matchOracle(t, "near-coincident", &tr, cloud, 0.5)
	matchOracle(t, "near-coincident, θ = 0", &tr, cloud, 0)

	bodies := New(4_000, 1, 1).gen()
	bodies[1234].M = 0
	tr = build(bodies)
	matchOracle(t, "one zero-mass body", &tr, bodies, 0.5)
	// Two zero-mass bodies alone in a quadrant: a massless inner cell.
	few := []Body{{X: 0.1, Y: 0.1, M: 1}, {X: 0.7, Y: 0.7}, {X: 0.9, Y: 0.9}, {X: 0.1, Y: 0.9, M: 2}}
	tr = build(few)
	if len(tr.walk) != 3 {
		t.Fatalf("massless quadrant: %d cells in the walk, want root and two leaves", len(tr.walk))
	}
	matchOracle(t, "massless quadrant", &tr, few, 0.5)

	// Body 0 sees the inner cell over bodies 1 and 2 (node 2, side 0.5)
	// at d2; a θ with θ²·d2 == side² sits on the boundary, where the cell
	// must be opened.
	three := []Body{{X: 0.1, Y: 0.1, M: 1}, {X: 0.6, Y: 0.6, M: 1}, {X: 0.9, Y: 0.9, M: 1.5}}
	tr = build(three)
	s := summarizeOracle(&tr, three)[2]
	if nd := tr.nodes[2]; nd.body >= 0 || nd.size != 0.5 {
		t.Fatalf("node 2 is not the inner cell of side 0.5: %+v", nd)
	}
	dx, dy := s.cmx-three[0].X, s.cmy-three[0].Y
	d2 := dx*dx + dy*dy + 1e-4
	theta := math.Sqrt(0.25 / d2)
	for k := 0; theta*theta*d2 != 0.25; k++ {
		if k == 1000 {
			t.Fatalf("no θ near %v puts the cell on the boundary", math.Sqrt(0.25/d2))
		}
		theta = math.Nextafter(theta, 1)
	}
	matchOracle(t, "opening boundary", &tr, three, theta)
}

// BenchmarkForce times the force on every body of both steps' trees of a
// suite.Medium run (16 000 bodies): the recursive oracle against the walk.
func BenchmarkForce(b *testing.B) {
	type step struct {
		tr     *tree
		bodies []Body
		sum    []summary
	}
	var steps []step
	a := New(16_000, 2, 1)
	a.run(func(tr *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
		steps = append(steps, step{tr, slices.Clone(bodies), summarizeOracle(tr, bodies)})
		a.forceChunk(tr, bodies, ax, ay, 0, len(bodies))
	})
	for _, k := range []struct {
		name  string
		force func(s step, bi int) (float64, float64, int)
	}{
		{"oracle", func(s step, bi int) (float64, float64, int) { return forceOracle(s.tr, s.sum, s.bodies, bi, theta) }},
		{"walk", func(s step, bi int) (float64, float64, int) { return s.tr.force(s.bodies, bi, theta) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range steps {
					for bi := range s.bodies {
						k.force(s, bi)
					}
				}
			}
		})
	}
}

func TestTreeMassConservation(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	var want float64
	for i := range bodies {
		want += bodies[i].M
	}
	if got := tr.walk[0].mass; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("root mass = %v, want %v", got, want)
	}
}

func TestTreeCountsBodies(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	if tr.nodes[0].n != len(bodies) {
		t.Fatalf("root body count = %d, want %d", tr.nodes[0].n, len(bodies))
	}
}

func TestForceMatchesDirectSummationOnTinySystem(t *testing.T) {
	// With theta=0 Barnes-Hut degenerates to direct summation.
	bodies := []Body{
		{X: 0.2, Y: 0.2, M: 1},
		{X: 0.8, Y: 0.8, M: 2},
		{X: 0.5, Y: 0.1, M: 1.5},
	}
	tr := build(bodies)
	const soft = 1e-4
	for i := range bodies {
		ax, ay, _ := tr.force(bodies, i, 0)
		var wx, wy float64
		for j := range bodies {
			if i == j {
				continue
			}
			dx, dy := bodies[j].X-bodies[i].X, bodies[j].Y-bodies[i].Y
			d2 := dx*dx + dy*dy + soft
			inv := 1 / (d2 * math.Sqrt(d2))
			wx += bodies[j].M * dx * inv
			wy += bodies[j].M * dy * inv
		}
		if math.Abs(ax-wx) > 1e-9 || math.Abs(ay-wy) > 1e-9 {
			t.Fatalf("body %d: force (%v,%v), want (%v,%v)", i, ax, ay, wx, wy)
		}
	}
}

func TestThetaReducesInteractions(t *testing.T) {
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	_, _, exact := tr.force(bodies, 0, 0)
	_, _, approx := tr.force(bodies, 0, 0.7)
	if approx >= exact {
		t.Fatalf("theta=0.7 interactions (%d) should be below direct (%d)", approx, exact)
	}
}

func TestDenseChunksCostMore(t *testing.T) {
	// The dense core must make some chunks much more expensive than
	// others — the imbalance this benchmark exists to provide.
	a := small()
	bodies := a.gen()
	tr := build(bodies)
	ax := make([]float64, a.n)
	ay := make([]float64, a.n)
	minI, maxI := math.MaxInt, 0
	for _, ch := range apps.Chunks(a.n, a.chunkSize) {
		inter := a.forceChunk(&tr, bodies, ax, ay, ch[0], ch[1])
		if inter < minI {
			minI = inter
		}
		if inter > maxI {
			maxI = inter
		}
	}
	if maxI < minI*3/2 {
		t.Fatalf("interaction counts too uniform: min %d max %d", minI, maxI)
	}
}

func TestBodiesStayInDomain(t *testing.T) {
	a := small()
	a.run(func(tr *tree, bodies []Body, ax, ay []float64, chunks [][2]int) {
		for _, ch := range chunks {
			a.forceChunk(tr, bodies, ax, ay, ch[0], ch[1])
		}
		for i := range bodies {
			if bodies[i].X < 0 || bodies[i].X >= 1 || bodies[i].Y < 0 || bodies[i].Y >= 1 {
				t.Fatalf("body %d escaped: %+v", i, bodies[i])
			}
		}
	})
}

// TestParallelMatchesSequential runs one App sequentially, in parallel
// under each policy and sequentially again: every checksum must match,
// and the initial bodies every run copies must still equal a fresh generation.
func TestParallelMatchesSequential(t *testing.T) {
	a := small()
	want := a.Sequential()
	for _, policy := range []sched.Kind{sched.X10WS, sched.DistWS} {
		rt, err := core.New(core.Config{
			Cluster: topology.Cluster{Places: 2, WorkersPerPlace: 2},
			Policy:  policy,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Parallel(rt)
		rt.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if got != want {
			t.Fatalf("%v: parallel %x != sequential %x", policy, got, want)
		}
	}
	if got := a.Sequential(); got != want {
		t.Fatalf("second sequential %x != first %x", got, want)
	}
	if !reflect.DeepEqual(a.start.Get(a.gen), a.gen()) {
		t.Fatalf("a run changed the shared initial bodies")
	}
}

func TestTraceValidAndCalibrated(t *testing.T) {
	a := small()
	g, err := a.Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	// Per step: one build task, one force task and one integrate task per
	// chunk.
	want := a.steps * (2*len(apps.Chunks(a.n, a.chunkSize)) + 1)
	if g.NumTasks() != want {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), want)
	}
	mean := apps.MeanFlexibleCostNS(g)
	if mean < 560_000_000 || mean > 690_000_000 {
		t.Fatalf("mean flexible granularity = %d, want ~623ms", mean)
	}
}

func TestTraceRunsInSimulator(t *testing.T) {
	g, err := small().Trace(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.Paper()
	cl.Places, cl.WorkersPerPlace = 4, 2
	r, err := sim.Run(g, cl, sched.DistWS, sim.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.TasksExecuted != int64(g.NumTasks()) {
		t.Fatalf("executed %d of %d", r.Counters.TasksExecuted, g.NumTasks())
	}
}
