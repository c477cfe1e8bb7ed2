package dag

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// chain builds a 3-task RAW chain: t0 writes b0, t1 reads b0 writes b1,
// t2 reads b1.
func chain() *Graph {
	return &Graph{
		Name: "chain",
		Tasks: []Task{
			{ID: 0, CostNS: 10, Outputs: []int{0}},
			{ID: 1, CostNS: 10, Inputs: []int{0}, Outputs: []int{1}},
			{ID: 2, CostNS: 10, Inputs: []int{1}},
		},
		BlockBytes: []int{100, 200},
	}
}

func TestScheduleRAW(t *testing.T) {
	s := NewSchedule(chain())
	if got := s.inDegree; !reflect.DeepEqual(got, []int{0, 1, 1}) {
		t.Fatalf("InDegree = %v", got)
	}
	if got := s.Dependents(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Dependents(0) = %v", got)
	}
	if got := s.Dependents(1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Dependents(1) = %v", got)
	}
}

func TestScheduleWAWAndWAR(t *testing.T) {
	// t0 writes b, t1 reads b, t2 writes b again: t2 must wait for both
	// the previous writer (WAW) and the reader (WAR).
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []int{0}},
			{ID: 1, Inputs: []int{0}},
			{ID: 2, Outputs: []int{0}},
		},
		BlockBytes: []int{8},
	}
	s := NewSchedule(g)
	if got := s.Dependents(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Dependents(0) = %v", got)
	}
	if got := s.Dependents(1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Dependents(1) = %v", got)
	}
	if got := s.InDegree(2); got != 2 {
		t.Fatalf("InDegree[2] = %d, want 2 (WAW + WAR)", got)
	}
}

func TestScheduleDedupsParallelEdges(t *testing.T) {
	// t1 reads two blocks both written by t0: one edge, in-degree 1.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []int{0, 1}},
			{ID: 1, Inputs: []int{0, 1}},
		},
		BlockBytes: []int{8, 8},
	}
	s := NewSchedule(g)
	if got := s.Dependents(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Dependents(0) = %v", got)
	}
	if got := s.InDegree(1); got != 1 {
		t.Fatalf("InDegree[1] = %d, want 1 after dedup", got)
	}
}

func TestReadModifyWriteHasNoSelfEdge(t *testing.T) {
	// A task reading and writing the same block (GEMM update in place)
	// must not depend on itself.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []int{0}},
			{ID: 1, Inputs: []int{0}, Outputs: []int{0}},
		},
		BlockBytes: []int{8},
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := NewSchedule(g).InDegree(1); got != 1 {
		t.Fatalf("InDegree[1] = %d, want 1", got)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Graph)
	}{
		{"bad id", func(g *Graph) { g.Tasks[1].ID = 7 }},
		{"negative cost", func(g *Graph) { g.Tasks[0].CostNS = -1 }},
		{"input past the last block", func(g *Graph) { g.Tasks[2].Inputs = []int{2} }},
		{"negative input", func(g *Graph) { g.Tasks[2].Inputs = []int{-1} }},
		{"output past the last block", func(g *Graph) { g.Tasks[0].Outputs = append(g.Tasks[0].Outputs, 99) }},
		{"negative output", func(g *Graph) { g.Tasks[0].Outputs = []int{-1} }},
		{"negative block size", func(g *Graph) { g.BlockBytes[1] = -200 }},
		{"a seed short", func(g *Graph) { g.Seed = []int{0} }},
		{"seed below NoSeed", func(g *Graph) { g.Seed = []int{0, -2} }},
	} {
		g := chain()
		tc.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed graph", tc.name)
		}
	}
}

func TestTrackerReleaseOrder(t *testing.T) {
	// Diamond: 0 → {1,2} → 3.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Outputs: []int{0}},
			{ID: 1, Inputs: []int{0}, Outputs: []int{1}},
			{ID: 2, Inputs: []int{0}, Outputs: []int{2}},
			{ID: 3, Inputs: []int{1, 2}},
		},
		BlockBytes: []int{8, 8, 8},
	}
	tr := NewTracker(NewSchedule(g))
	if got := tr.Ready(nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Ready = %v", got)
	}
	if got := tr.Complete(0, nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Complete(0) = %v, want id order", got)
	}
	if got := tr.Complete(1, nil); len(got) != 0 {
		t.Fatalf("Complete(1) = %v, want none", got)
	}
	if tr.Done() {
		t.Fatal("Done too early")
	}
	if got := tr.Complete(2, nil); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Complete(2) = %v", got)
	}
	tr.Complete(3, nil)
	if !tr.Done() {
		t.Fatal("not Done after all completions")
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory(4)
	d.SeedFrom(&Graph{BlockBytes: make([]int, 2)})
	if d.Anywhere(1) {
		t.Fatal("empty directory claims residency")
	}
	d.Produce(1, 2)
	if !d.Resident(1, 2) || d.Resident(1, 0) {
		t.Fatal("Produce residency wrong")
	}
	d.Replicate(1, 0)
	if !d.Resident(1, 0) || !d.Resident(1, 2) {
		t.Fatal("Replicate lost a copy")
	}
	// A new producer invalidates every other copy.
	d.Produce(1, 3)
	if d.Resident(1, 0) || d.Resident(1, 2) || !d.Resident(1, 3) {
		t.Fatal("Produce did not invalidate stale copies")
	}
}

func TestDirectorySeedWraps(t *testing.T) {
	g := chain()
	g.Seed = []int{NoSeed, 6} // built for more places than we have
	d := NewDirectory(4)
	d.SeedFrom(g)
	if !d.Resident(1, 2) {
		t.Fatal("seed owner not wrapped mod places")
	}
	if d.Anywhere(0) {
		t.Fatal("a block seeded at NoSeed is resident")
	}
}

func TestFetchBytes(t *testing.T) {
	g := chain()
	d := NewDirectory(2)
	d.SeedFrom(g)
	d.Produce(0, 0)
	d.Produce(1, 1)
	// t2 reads block 1 (200B, resident at 1).
	if got := d.FetchBytes(g, 2, 1); got != 0 {
		t.Fatalf("FetchBytes at home = %d", got)
	}
	if got := d.FetchBytes(g, 2, 0); got != 200 {
		t.Fatalf("FetchBytes away = %d", got)
	}
	// Blocks resident nowhere cost nothing to fetch.
	g.Tasks[2].Inputs = append(g.Tasks[2].Inputs, 0)
	d2 := NewDirectory(2)
	d2.SeedFrom(g)
	if got := d2.FetchBytes(g, 2, 0); got != 0 {
		t.Fatalf("FetchBytes of unmaterialized blocks = %d", got)
	}
}

// bytesCost prices placement in bytes moved, with no backlog anywhere.
type bytesCost struct{}

func (bytesCost) Backlog(int) int64        { return 0 }
func (bytesCost) Transfer(bytes int) int64 { return int64(bytes) }

// TestFlow runs a three-task graph on two places through a Flow by hand,
// under both policies: where each task is placed, what its inputs hit,
// miss and replicate, where its outputs end up, and what each completion
// releases.
func TestFlow(t *testing.T) {
	// Blocks 0 and 1 are seeded at places 1 and 0. t0 reads 0 and writes
	// 2, t1 reads 1 and writes 3, t2 reads 2 and 3 and overwrites 0. Every
	// home is declared as place 2, which wraps to 0.
	g := &Graph{
		Tasks: []Task{
			{ID: 0, Home: 2, Inputs: []int{0}, Outputs: []int{2}},
			{ID: 1, Home: 2, Inputs: []int{1}, Outputs: []int{3}},
			{ID: 2, Home: 2, Inputs: []int{2, 3}, Outputs: []int{0}},
		},
		BlockBytes: []int{100, 100, 300, 50},
		Seed:       []int{1, 0, NoSeed, NoSeed},
	}
	for _, tc := range []struct {
		policy Policy
		homes  []int
		stats  ExecStats
		// where lists each block's places after the run.
		where [][]int
	}{
		// Blind: everything at the wrapped home 0. t0 fetches block 0 (a
		// replica stays at 0), t1 and t2 find their inputs there, and
		// t2's write leaves 0 the only copy of block 0.
		{PolicyBlind, []int{0, 0, 0}, ExecStats{Released: 3, ResidentHits: 3, ResidentMisses: 1, FetchedBytes: 100},
			[][]int{{0}, {0}, {0}, {0}}},
		// Data-aware: t0 follows block 0 to place 1, t1 stays with block 1
		// at 0, and t2 runs at 1, where moving block 3 (50 B) beats moving
		// block 2 (300 B) and block 0 already lives.
		{PolicyDataAware, []int{1, 0, 1}, ExecStats{Released: 3, ResidentHits: 3, ResidentMisses: 1, FetchedBytes: 50},
			[][]int{{1}, {0}, {1}, {0, 1}}},
	} {
		f := NewFlow(g, 2, tc.policy)
		var released [][]int
		run := func(ids []int) {
			for _, id := range ids {
				if got := f.Place(id, bytesCost{}); got != tc.homes[id] {
					t.Fatalf("%v: task %d placed at %d, want %d", tc.policy, id, got, tc.homes[id])
				}
			}
			for _, id := range ids {
				f.Fetch(id, tc.homes[id], bytesCost{})
				released = append(released, f.Complete(id, tc.homes[id], nil))
			}
		}
		ready := f.Ready(nil)
		run(ready)
		run(released[1])
		if want := [][]int{nil, {2}, nil}; !reflect.DeepEqual(released, want) || !reflect.DeepEqual(ready, []int{0, 1}) {
			t.Fatalf("%v: ready %v, releases %v, want [0 1] then %v", tc.policy, ready, released, want)
		}
		if !f.Done() || f.Stats != tc.stats {
			t.Fatalf("%v: done %v, stats %+v, want %+v", tc.policy, f.Done(), f.Stats, tc.stats)
		}
		for b, want := range tc.where {
			var got []int
			for p := 0; p < 2; p++ {
				if f.dir.Resident(b, p) {
					got = append(got, p)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v: block %d at %v, want %v", tc.policy, b, got, want)
			}
		}
	}
}

func TestBestPlace(t *testing.T) {
	g := chain()
	g.Tasks[2].Home = 0
	d := NewDirectory(3)
	d.SeedFrom(g)
	d.Produce(1, 1)
	transfer := func(b int) int64 { return int64(b) } // 1 ns per byte
	// No backlog: the resident place wins over the declared home.
	if got := BestPlace(g, d, 2, []int64{0, 0, 0}, transfer); got != 1 {
		t.Fatalf("BestPlace = %d, want resident place 1", got)
	}
	// Enough backlog at the resident place flips it back home.
	if got := BestPlace(g, d, 2, []int64{0, 500, 0}, transfer); got != 0 {
		t.Fatalf("BestPlace with backlog = %d, want home 0", got)
	}
	// Ties go to the declared home.
	if got := BestPlace(g, d, 2, []int64{0, 200, 0}, transfer); got != 0 {
		t.Fatalf("BestPlace tie = %d, want home 0", got)
	}
	// Task 0 has no inputs: everything ties, home wins.
	g.Tasks[0].Home = 2
	if got := BestPlace(g, d, 0, []int64{0, 0, 0}, transfer); got != 2 {
		t.Fatalf("BestPlace no-input = %d, want home 2", got)
	}
}

// bestPlaceOracle is BestPlace scoring each place with its own MoveBytes
// walk, the oracle the one-read BestPlace is held to.
func bestPlaceOracle(g *Graph, d *Directory, t int, backlogNS []int64, transfer func(bytes int) int64) int {
	home := wrap(g.Tasks[t].Home, len(backlogNS))
	best := home
	bestScore := transfer(d.MoveBytes(g, t, home)) + backlogNS[home]
	for p := range backlogNS {
		if p == home {
			continue
		}
		score := transfer(d.MoveBytes(g, t, p)) + backlogNS[p]
		if score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// BestPlace against its oracle on random graphs and directories: the
// same place, and the same transfer argument, MoveBytes, for every place
// in scan order. 65 places take two residency words; odd block sizes
// make the outputs' half weight truncate.
func TestBestPlaceMatchesMoveBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const blocks = 24
	for _, places := range []int{1, 2, 3, 16, 64, 65} {
		for round := 0; round < 100; round++ {
			g := &Graph{BlockBytes: make([]int, blocks)}
			d := NewDirectory(places)
			d.SeedFrom(g)
			for b := 0; b < blocks; b++ {
				g.BlockBytes[b] = 1 + rng.Intn(999)
				if rng.Intn(4) == 0 {
					continue // resident nowhere
				}
				d.Produce(b, rng.Intn(places))
				for k := rng.Intn(4); k > 0; k-- {
					d.Replicate(b, rng.Intn(places))
				}
				if rng.Intn(4) == 0 {
					d.Replicate(b, places-1) // the last word's top place
				}
			}
			pick := func(k int) []int {
				var bs []int
				for ; k > 0; k-- {
					bs = append(bs, rng.Intn(blocks))
				}
				return bs
			}
			for i := 0; i < 8; i++ {
				task := Task{ID: i, Home: rng.Intn(3*places) - places, Inputs: pick(rng.Intn(6)), Outputs: pick(rng.Intn(3))}
				if len(task.Inputs) > 0 && rng.Intn(3) == 0 {
					task.Inputs = append(task.Inputs, task.Inputs[0]) // a repeated input
				}
				if len(task.Inputs) > 0 && rng.Intn(3) == 0 {
					task.Outputs = append(task.Outputs, task.Inputs[len(task.Inputs)-1]) // read-modify-write
				}
				g.Tasks = append(g.Tasks, task)
			}
			backlog := make([]int64, places)
			for r := 0; r < 3; r++ {
				for p := range backlog {
					backlog[p] = rng.Int63n(4) * 250 // ties are common
				}
				unit := int64(1 + rng.Intn(2)*499) // per byte, or coarse enough to tie
				for i := range g.Tasks {
					var got, want []int
					gotP := BestPlace(g, d, i, backlog, func(b int) int64 { got = append(got, b); return int64(b) / unit })
					wantP := bestPlaceOracle(g, d, i, backlog, func(b int) int64 { want = append(want, b); return int64(b) / unit })
					if gotP != wantP || !slices.Equal(got, want) {
						t.Fatalf("%d places, round %d, task %+v: BestPlace %d scoring %v, oracle %d scoring %v",
							places, round, g.Tasks[i], gotP, got, wantP, want)
					}
				}
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"blind": PolicyBlind, "Data-Aware": PolicyDataAware, " aware ": PolicyDataAware,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
	if PolicyBlind.String() != "blind" || PolicyDataAware.String() != "data-aware" {
		t.Fatal("Policy.String mismatch")
	}
	if !PolicyBlind.Valid() || Policy(9).Valid() {
		t.Fatal("Policy.Valid mismatch")
	}
}

func TestGraphAccounting(t *testing.T) {
	g := chain()
	if g.NumTasks() != 3 || g.TotalWorkNS() != 30 {
		t.Fatal("accounting mismatch")
	}
	if got := g.InputBytes(2); got != 200 {
		t.Fatalf("InputBytes = %d", got)
	}
}
