package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestOrient2D(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orient2D(a, b, Point{0, 1}) <= 0 {
		t.Fatalf("CCW triple should be positive")
	}
	if Orient2D(a, b, Point{0, -1}) >= 0 {
		t.Fatalf("CW triple should be negative")
	}
	if Orient2D(a, b, Point{2, 0}) != 0 {
		t.Fatalf("collinear triple should be zero")
	}
}

func TestInCircumcircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) — CCW.
	a, b, c := Point{1, 0}, Point{0, 1}, Point{-1, 0}
	if !InCircumcircle(a, b, c, Point{0, 0}) {
		t.Fatalf("center should be inside")
	}
	if InCircumcircle(a, b, c, Point{2, 2}) {
		t.Fatalf("far point should be outside")
	}
}

func TestCircumcenter(t *testing.T) {
	cc, ok := Circumcenter(Point{1, 0}, Point{0, 1}, Point{-1, 0})
	if !ok {
		t.Fatalf("circumcenter of proper triangle should exist")
	}
	if math.Abs(cc.X) > 1e-9 || math.Abs(cc.Y) > 1e-9 {
		t.Fatalf("circumcenter = %v, want origin", cc)
	}
	if _, ok := Circumcenter(Point{0, 0}, Point{1, 1}, Point{2, 2}); ok {
		t.Fatalf("degenerate triangle should have no circumcenter")
	}
}

func TestMinAngleDeg(t *testing.T) {
	// Equilateral: all angles 60.
	h := math.Sqrt(3) / 2
	got := MinAngleDeg(Point{0, 0}, Point{1, 0}, Point{0.5, h})
	if math.Abs(got-60) > 1e-6 {
		t.Fatalf("equilateral min angle = %v, want 60", got)
	}
	// Right isoceles: min angle 45.
	got = MinAngleDeg(Point{0, 0}, Point{1, 0}, Point{0, 1})
	if math.Abs(got-45) > 1e-6 {
		t.Fatalf("right isoceles min angle = %v, want 45", got)
	}
}

func TestInsertSinglePoint(t *testing.T) {
	m := NewMesh(0, 0, 1, 1, 0)
	created, err := m.Insert(Point{0.5, 0.5})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if len(created) != 3 {
		t.Fatalf("inserting into one triangle should create 3, got %d", len(created))
	}
	if m.NumAlive() != 3 {
		t.Fatalf("NumAlive = %d, want 3", m.NumAlive())
	}
	if err := m.Validate(true); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestInsertManyPointsStaysDelaunay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMesh(0, 0, 1, 1, 0)
	n := 120
	for i := 0; i < n; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		if _, err := m.Insert(p); err != nil {
			t.Fatalf("Insert #%d: %v", i, err)
		}
	}
	if err := m.Validate(true); err != nil {
		t.Fatalf("mesh invalid after %d inserts: %v", n, err)
	}
	// Euler: with s super vertices, n inner points, all inside the super
	// triangle: triangles = 2*(n+3) - 2 - 3 = 2n+1.
	if got, want := m.NumAlive(), 2*n+1; got != want {
		t.Fatalf("NumAlive = %d, want %d", got, want)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	m := NewMesh(0, 0, 1, 1, 0)
	if _, err := m.Insert(Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(Point{0.5, 0.5}); err == nil {
		t.Fatalf("duplicate insert should fail")
	}
}

func TestInsertOutsideRejected(t *testing.T) {
	m := NewMesh(0, 0, 1, 1, 0)
	if _, err := m.Insert(Point{1e9, 1e9}); err == nil {
		t.Fatalf("point outside the super-triangle should be rejected")
	}
}

func TestLocateFindsContainingTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMesh(0, 0, 1, 1, 0)
	for i := 0; i < 60; i++ {
		m.Insert(Point{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 100; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		ti := m.Locate(p)
		if ti < 0 {
			t.Fatalf("Locate failed for in-domain point %v", p)
		}
		if !m.contains(ti, p) {
			t.Fatalf("Locate returned triangle not containing %v", p)
		}
	}
}

func TestInsertStepsAccumulate(t *testing.T) {
	m := NewMesh(0, 0, 1, 1, 0)
	m.Insert(Point{0.3, 0.3})
	if m.InsertSteps == 0 {
		t.Fatalf("InsertSteps should accumulate cavity work")
	}
}

func TestHasSuperVertex(t *testing.T) {
	m := NewMesh(0, 0, 1, 1, 0)
	if !m.HasSuperVertex(0) {
		t.Fatalf("initial triangle is the super-triangle")
	}
	// Three interior points form one triangle with no super vertices.
	m.Insert(Point{0.4, 0.4})
	m.Insert(Point{0.6, 0.4})
	m.Insert(Point{0.5, 0.6})
	any := false
	for i := range m.Tris {
		if m.Tris[i].Alive && !m.HasSuperVertex(i) {
			any = true
		}
	}
	if !any {
		t.Fatalf("after 3 inserts some triangle should be fully interior")
	}
}

// Property: for random point sets, the mesh remains structurally valid and
// triangle count follows Euler's formula.
func TestMeshInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMesh(0, 0, 1, 1, 0)
		inserted := 0
		for i := 0; i < n; i++ {
			if _, err := m.Insert(Point{rng.Float64(), rng.Float64()}); err == nil {
				inserted++
			}
		}
		if err := m.Validate(true); err != nil {
			return false
		}
		return m.NumAlive() == 2*inserted+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the in-circumcircle predicate is symmetric under rotation of
// the triangle's vertices.
func TestInCircumcircleRotationProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, px, py int8) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		p := Point{float64(px), float64(py)}
		if Orient2D(a, b, c) <= 0 {
			a, b = b, a // force CCW; skip degenerate
			if Orient2D(a, b, c) <= 0 {
				return true
			}
		}
		r1 := InCircumcircle(a, b, c, p)
		r2 := InCircumcircle(b, c, a, p)
		r3 := InCircumcircle(c, a, b, p)
		return r1 == r2 && r2 == r3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// insertOracle is the map-based Bowyer–Watson insert that Mesh.Insert
// replaced, kept as the reference the scratch-reusing one must match
// triangle slot for triangle slot.
func insertOracle(m *Mesh, p Point) ([]int, error) {
	t0 := m.Locate(p)
	if t0 < 0 {
		return nil, fmt.Errorf("geom: point (%v,%v) outside the mesh", p.X, p.Y)
	}
	// Reject duplicates of the containing triangle's vertices.
	for _, v := range m.Tris[t0].V {
		if m.Pts[v].Dist2(p) < 1e-20 {
			return nil, fmt.Errorf("geom: duplicate point (%v,%v)", p.X, p.Y)
		}
	}

	// Grow the cavity: DFS over triangles whose circumcircle contains p.
	inCavity := map[int]bool{t0: true}
	stack := []int{t0}
	var cavity []int
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, t)
		for _, n := range m.Tris[t].N {
			if n < 0 || inCavity[n] {
				continue
			}
			tri := &m.Tris[n]
			if InCircumcircle(m.Pts[tri.V[0]], m.Pts[tri.V[1]], m.Pts[tri.V[2]], p) {
				inCavity[n] = true
				stack = append(stack, n)
			}
		}
	}
	m.InsertSteps += len(cavity)

	// Collect the cavity boundary: directed edges (a -> b) whose opposite
	// triangle is outside the cavity, with that outside neighbour.
	type bEdge struct {
		a, b    int
		outside int
	}
	var boundary []bEdge
	for _, t := range cavity {
		tri := &m.Tris[t]
		for i := 0; i < 3; i++ {
			n := tri.N[i]
			if n < 0 || !inCavity[n] {
				boundary = append(boundary, bEdge{tri.V[i], tri.V[(i+1)%3], n})
			}
		}
	}

	// Kill cavity triangles, freeing their slots.
	for _, t := range cavity {
		m.Tris[t].Alive = false
		m.free = append(m.free, t)
	}

	// Add the new vertex and fan new triangles over the boundary.
	pv := len(m.Pts)
	m.Pts = append(m.Pts, p)
	newTris := make([]int, 0, len(boundary))
	// edgeOwner maps directed edge (x,y) of a *new* triangle to its index
	// so adjacent fan triangles can be stitched together.
	edgeOwner := make(map[[2]int]int, 3*len(boundary))
	for _, e := range boundary {
		nt := m.alloc(Tri{V: [3]int{e.a, e.b, pv}, N: [3]int{e.outside, -1, -1}, Alive: true})
		// Hook the outside neighbour back to us across edge (a,b).
		if e.outside >= 0 {
			out := &m.Tris[e.outside]
			for i := 0; i < 3; i++ {
				if out.V[i] == e.b && out.V[(i+1)%3] == e.a {
					out.N[i] = nt
					break
				}
			}
		}
		edgeOwner[[2]int{e.a, e.b}] = nt
		newTris = append(newTris, nt)
	}
	// Stitch fan neighbours: new triangle (a,b,p) has edges (b,p) and
	// (p,a); its neighbour across (b,p) is the new triangle starting with
	// b — i.e. owner of directed boundary edge (b, x).
	for _, nt := range newTris {
		tri := &m.Tris[nt]
		a, b := tri.V[0], tri.V[1]
		for e, owner := range edgeOwner {
			if e[0] == b { // neighbour across (b, p)
				tri.N[1] = owner
			}
			if e[1] == a { // neighbour across (p, a)
				tri.N[2] = owner
			}
		}
	}
	m.hint = newTris[0]
	return newTris, nil
}

// oracleInputs are the point sets the differential test replays: uniform,
// a 40×40 lattice (collinear rows, cocircular squares), tight clusters,
// draws from a few lattice sites (mostly duplicates), and a spread that
// reaches past the box into the super-triangle's corners and outside it.
func oracleInputs(seed int64, n int) map[string][]Point {
	rng := rand.New(rand.NewSource(seed))
	lattice := func(k int) Point {
		return Point{float64(rng.Intn(k)) / float64(k-1), float64(rng.Intn(k)) / float64(k-1)}
	}
	in := map[string][]Point{}
	for i := 0; i < n; i++ {
		c := Point{float64(rng.Intn(3)) / 2, float64(rng.Intn(3)) / 2}
		in["random"] = append(in["random"], Point{rng.Float64(), rng.Float64()})
		in["lattice"] = append(in["lattice"], lattice(40))
		in["clustered"] = append(in["clustered"], Point{c.X + 1e-4*rng.NormFloat64(), c.Y + 1e-4*rng.NormFloat64()})
		in["duplicates"] = append(in["duplicates"], lattice(6))
		in["outside"] = append(in["outside"], Point{40*rng.Float64() - 20, 40*rng.Float64() - 20})
	}
	return in
}

// inputs names the i-th insert of a lockstep: its point, and the live
// triangle of the tested mesh to start its walk at, or -1 for Insert.
type inputs func(m *Mesh, i int) (Point, int)

// points inserts pts in order with Insert.
func points(pts []Point) inputs {
	return func(_ *Mesh, i int) (Point, int) { return pts[i], -1 }
}

// circumcentres inserts, as dmr's refinement does, the circumcentre of a
// live triangle drawn by rng, with the walk started at that triangle.
func circumcentres(rng *rand.Rand) inputs {
	return func(m *Mesh, _ int) (Point, int) {
		for {
			t := rng.Intn(len(m.Tris))
			if !m.Tris[t].Alive {
				continue
			}
			v := m.Tris[t].V
			if cc, ok := Circumcenter(m.Pts[v[0]], m.Pts[v[1]], m.Pts[v[2]]); ok {
				return cc, t
			}
		}
	}
}

// lockstep makes n inserts into m and, with insertOracle, into a copy of
// it, failing on the first insert after which the error, InsertSteps or
// the set of live triangles differ. When exact, the created triangles,
// Tris, Pts, the free list and the hint must be identical too: slot for
// slot, as they are for every point off the mesh's edges.
func lockstep(t *testing.T, name string, m *Mesh, n int, in inputs, exact bool) {
	t.Helper()
	o := &Mesh{Pts: slices.Clone(m.Pts), Tris: slices.Clone(m.Tris), free: slices.Clone(m.free),
		hint: m.hint, InsertSteps: m.InsertSteps}
	for i := 0; i < n; i++ {
		p, start := in(m, i)
		var got []int
		var gerr error
		if start < 0 {
			got, gerr = m.Insert(p)
		} else {
			got, gerr = m.InsertFrom(p, start)
		}
		want, werr := insertOracle(o, p)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || m.InsertSteps != o.InsertSteps {
			t.Fatalf("%s insert %d %v: %v, %d steps; oracle %v, %d steps", name, i, p, gerr, m.InsertSteps, werr, o.InsertSteps)
		}
		if exact {
			if !slices.Equal(got, want) || m.hint != o.hint || !slices.Equal(m.Tris, o.Tris) ||
				!slices.Equal(m.Pts, o.Pts) || !slices.Equal(m.free, o.free) {
				t.Fatalf("%s insert %d %v: created %v; oracle %v; or the mesh state diverges", name, i, p, got, want)
			}
		} else if g, w := liveSet(m), liveSet(o); !slices.Equal(g, w) {
			t.Fatalf("%s insert %d %v: %d live triangles; oracle %d; or they differ", name, i, p, len(g), len(w))
		}
	}
}

// liveSet returns m's live triangles, each rotated to start at its
// smallest vertex and packed 21 bits a vertex, in sorted order.
func liveSet(m *Mesh) []uint64 {
	var set []uint64
	for i := range m.Tris {
		if !m.Tris[i].Alive {
			continue
		}
		v := m.Tris[i].V
		for v[0] > v[1] || v[0] > v[2] {
			v = [3]int{v[1], v[2], v[0]}
		}
		set = append(set, uint64(v[0])<<42|uint64(v[1])<<21|uint64(v[2]))
	}
	slices.Sort(set)
	return set
}

// TestInsertMatchesOracle drives Insert and the map-based oracle in
// lockstep over 30 seeds of every input kind, three ways: Insert into an
// unsized mesh, whose walk starts at the last insert; Insert into a sized
// mesh, whose walk starts in the point's grid cell; and then, on that
// mesh, InsertFrom at circumcentres of live triangles. Every error,
// InsertSteps value and live-triangle set must equal the oracle's. On the
// random, clustered and outside kinds, whose points lie off every edge,
// every triangle slot and its adjacency must too; the unsized mesh starts
// where the oracle does, so it must match slot for slot on every kind.
func TestInsertMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for kind, pts := range oracleInputs(seed, 300) {
			name := fmt.Sprintf("seed %d %s", seed, kind)
			offEdges := kind != "lattice" && kind != "duplicates"
			lockstep(t, name, NewMesh(0, 0, 1, 1, 0), len(pts), points(pts), true)
			m := NewMesh(0, 0, 1, 1, len(pts))
			lockstep(t, name+" sized", m, len(pts), points(pts), offEdges)
			lockstep(t, name+" refine", m, 100, circumcentres(rand.New(rand.NewSource(seed))), offEdges)
		}
	}
}

// TestInsertEpochWrap runs the lockstep across the cavity-stamp epoch's
// wrap, with the epoch set just below it and every slot holding a stale
// stamp of the first epoch after it: the wrap must clear them, or a
// triangle outside the cavity would be taken for one inside.
func TestInsertEpochWrap(t *testing.T) {
	pts := oracleInputs(3, 300)["random"]
	m := NewMesh(0, 0, 1, 1, 0)
	lockstep(t, "before", m, 100, points(pts), true)
	for i := range m.mark {
		m.mark[i] = 1
	}
	m.epoch = math.MaxUint32 - 2
	lockstep(t, "across the wrap", m, 200, points(pts[100:]), true)
	if m.epoch == 0 || m.epoch > 200 {
		t.Fatalf("epoch = %d, want it wrapped past 0", m.epoch)
	}
}

// stitchPairwise is the O(k²) stitch that stitch replaced, kept as its
// reference: every boundary edge against every other, the last match
// winning.
func stitchPairwise(m *Mesh) {
	for i, e := range m.boundary {
		tri := &m.Tris[m.created[i]]
		for j, f := range m.boundary {
			if f.a == e.b {
				tri.N[1] = m.created[j]
			}
			if f.b == e.a {
				tri.N[2] = m.created[j]
			}
		}
	}
}

// TestStitchLeavesOpenEdgesOpen stitches a closed fan and then an open
// one, a boundary path whose ends no edge of it continues. There the
// vertex slots still hold the closed fan's entries, and the open ends
// must stay -1 as the pairwise stitch leaves them, not take the triangle
// a stale slot names.
func TestStitchLeavesOpenEdgesOpen(t *testing.T) {
	m := &Mesh{Tris: make([]Tri, 5), from: make([]int32, 5), to: make([]int32, 5)}
	fans := []struct {
		boundary []bEdge
		created  []int
	}{
		{[]bEdge{{0, 1, -1}, {1, 2, -1}, {2, 0, -1}}, []int{0, 1, 2}},
		{[]bEdge{{3, 4, -1}, {4, 0, -1}}, []int{3, 4}},
	}
	for _, f := range fans {
		m.boundary, m.created = f.boundary, f.created
		for _, nt := range f.created {
			m.Tris[nt].N = [3]int{-1, -1, -1}
		}
		want := slices.Clone(m.Tris)
		stitchPairwise(&Mesh{Tris: want, boundary: f.boundary, created: f.created})
		m.stitch()
		if !slices.Equal(m.Tris, want) {
			t.Fatalf("fan over %v: stitched %v, want %v", f.boundary, m.Tris, want)
		}
	}
	if n := m.Tris[3].N; n != [3]int{-1, 4, -1} {
		t.Fatalf("open fan's first triangle has neighbours %v, want [-1 4 -1]", n)
	}
}

// TestInsertAllocatesNothing pins Insert on a warmed mesh sized for its
// points to no allocation: the returned slice is the mesh's own.
func TestInsertAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMesh(0, 0, 1, 1, 2600)
	for i := 0; i < 2000; i++ {
		m.Insert(Point{rng.Float64(), rng.Float64()})
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := m.Insert(Point{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Insert allocates %v objects, want 0", n)
	}
}

// BenchmarkInsert times one insert into a mesh of up to 4 096 uniform
// points, rebuilt every 4 096 inserts so ns/op does not grow with b.N:
// the map-based oracle and Insert on an unsized mesh, whose walks start
// at the last insert, against Insert on a mesh sized for the points,
// whose walks start in the point's grid cell. refine times one
// circumcentre insert, started at its triangle (the draw of the triangle
// included), into a mesh sized for 1 024 uniform points and seeded with
// them, reseeded every 4 096 inserts off the clock.
func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 4096)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	for _, k := range []struct {
		name   string
		size   int
		insert func(*Mesh, Point) ([]int, error)
	}{{"oracle", 0, insertOracle}, {"scratch", 0, (*Mesh).Insert}, {"sized", len(pts), (*Mesh).Insert}} {
		b.Run(k.name, func(b *testing.B) {
			var m *Mesh
			for i := 0; i < b.N; i++ {
				if i%len(pts) == 0 {
					m = NewMesh(0, 0, 1, 1, k.size)
				}
				k.insert(m, pts[i%len(pts)])
			}
		})
	}
	b.Run("refine", func(b *testing.B) {
		var m *Mesh
		next := circumcentres(rand.New(rand.NewSource(2)))
		for i := 0; i < b.N; i++ {
			if i%len(pts) == 0 {
				b.StopTimer()
				m = NewMesh(0, 0, 1, 1, 1024)
				for _, p := range pts[:1024] {
					m.Insert(p)
				}
				b.StartTimer()
			}
			m.InsertFrom(next(m, i))
		}
	})
}
