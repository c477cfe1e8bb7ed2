package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distws/internal/task"
)

func busyLoad() PlaceLoad {
	return PlaceLoad{Active: true, Spares: 0, Size: 8, MaxThreads: 8}
}

func TestMapTaskX10WSAlwaysPrivate(t *testing.T) {
	for _, class := range []task.Class{task.Sensitive, task.Flexible} {
		if got := MapTask(X10WS, class, busyLoad(), 0); got != TargetPrivate {
			t.Fatalf("X10WS maps %v to %v, want private", class, got)
		}
	}
}

func TestMapTaskDistWSSensitivePrivate(t *testing.T) {
	// Sensitive tasks are pinned no matter the load.
	loads := []PlaceLoad{busyLoad(), {Active: false}, {Active: true, Spares: 3}}
	for _, load := range loads {
		if got := MapTask(DistWS, task.Sensitive, load, 0); got != TargetPrivate {
			t.Fatalf("DistWS maps sensitive under %+v to %v, want private", load, got)
		}
	}
}

func TestMapTaskDistWSFlexible(t *testing.T) {
	cases := []struct {
		name string
		load PlaceLoad
		want Target
	}{
		{"fully utilized -> shared", busyLoad(), TargetShared},
		{"idle place -> private", PlaceLoad{Active: false, Size: 8, MaxThreads: 8}, TargetPrivate},
		{"spare workers -> private", PlaceLoad{Active: true, Spares: 2, Size: 8, MaxThreads: 8}, TargetPrivate},
		{"room for threads -> private", PlaceLoad{Active: true, Spares: 0, Size: 3, MaxThreads: 8}, TargetPrivate},
	}
	for _, tc := range cases {
		if got := MapTask(DistWS, task.Flexible, tc.load, 0); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMapTaskDistWSNSRoundRobin(t *testing.T) {
	sawShared, sawPrivate := false, false
	for seq := uint64(0); seq < 4; seq++ {
		switch MapTask(DistWSNS, task.Sensitive, busyLoad(), seq) {
		case TargetShared:
			sawShared = true
		case TargetPrivate:
			sawPrivate = true
		}
	}
	if !sawShared || !sawPrivate {
		t.Fatalf("DistWS-NS round robin should alternate targets: shared=%v private=%v",
			sawShared, sawPrivate)
	}
	// Classification must be ignored: same seq, different class, same target.
	for seq := uint64(0); seq < 4; seq++ {
		a := MapTask(DistWSNS, task.Sensitive, busyLoad(), seq)
		b := MapTask(DistWSNS, task.Flexible, busyLoad(), seq)
		if a != b {
			t.Fatalf("DistWS-NS must ignore class: seq=%d got %v vs %v", seq, a, b)
		}
	}
}

// Adaptive maps identically to DistWS for any (class, load) pair: the
// policy's novelty is who supplies the class, not the mapping itself.
func TestMapTaskAdaptiveMatchesDistWS(t *testing.T) {
	loads := []PlaceLoad{
		busyLoad(),
		{Active: false, Size: 8, MaxThreads: 8},
		{Active: true, Spares: 2, Size: 8, MaxThreads: 8},
		{Active: true, Spares: 0, Size: 3, MaxThreads: 8},
	}
	for _, class := range []task.Class{task.Sensitive, task.Flexible} {
		for _, load := range loads {
			a := MapTask(Adaptive, class, load, 0)
			d := MapTask(DistWS, class, load, 0)
			if a != d {
				t.Fatalf("Adaptive maps (%v, %+v) to %v, DistWS to %v", class, load, a, d)
			}
		}
	}
}

func TestMapTaskRandomAndLifelineShared(t *testing.T) {
	for _, k := range []Kind{RandomWS, LifelineWS} {
		for _, class := range []task.Class{task.Sensitive, task.Flexible} {
			if got := MapTask(k, class, busyLoad(), 0); got != TargetShared {
				t.Fatalf("%v maps %v to %v, want shared", k, class, got)
			}
		}
	}
}

func TestRemoteStealing(t *testing.T) {
	if RemoteStealing(X10WS) {
		t.Fatalf("X10WS must not steal remotely")
	}
	for _, k := range []Kind{DistWS, DistWSNS, RandomWS, LifelineWS, Adaptive} {
		if !RemoteStealing(k) {
			t.Fatalf("%v should steal remotely", k)
		}
	}
}

func TestChunks(t *testing.T) {
	if got := RemoteChunk(DistWS); got != 2 {
		t.Fatalf("DistWS RemoteChunk = %d, want 2 (paper §V-B3)", got)
	}
	if got := RemoteChunk(DistWSNS); got != 2 {
		t.Fatalf("DistWS-NS RemoteChunk = %d, want 2", got)
	}
	if got := RemoteChunk(RandomWS); got != 1 {
		t.Fatalf("RandomWS RemoteChunk = %d, want 1", got)
	}
	if got := RemoteChunk(Adaptive); got != 2 {
		t.Fatalf("Adaptive RemoteChunk = %d, want the paper's 2 as starting point", got)
	}
	if got := RemoteChunk(X10WS); got != 0 {
		t.Fatalf("X10WS RemoteChunk = %d, want 0", got)
	}
}

func TestVictimOrderCoversAllOtherPlaces(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	order := AppendVictimOrder(nil, DistWS, 3, 8, rng)
	if len(order) != 7 {
		t.Fatalf("len(order) = %d, want 7", len(order))
	}
	seen := map[int]bool{}
	for _, p := range order {
		if p == 3 {
			t.Fatalf("victim order contains self")
		}
		if p < 0 || p >= 8 {
			t.Fatalf("victim %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("victim %d repeated", p)
		}
		seen[p] = true
	}
}

func TestVictimOrderDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := AppendVictimOrder(nil, DistWS, 0, 1, rng); len(got) != 0 {
		t.Fatalf("single place should yield an empty order, got %v", got)
	}
	if got := AppendVictimOrder(nil, X10WS, 0, 8, rng); len(got) != 0 {
		t.Fatalf("X10WS should yield an empty order, got %v", got)
	}
}

// Property: victim order is a permutation of all places except self.
func TestVictimOrderPermutationProperty(t *testing.T) {
	f := func(selfRaw, placesRaw uint8, seed int64) bool {
		places := int(placesRaw%16) + 2
		self := int(selfRaw) % places
		rng := rand.New(rand.NewSource(seed))
		order := AppendVictimOrder(nil, DistWS, self, places, rng)
		if len(order) != places-1 {
			return false
		}
		seen := make(map[int]bool, len(order))
		for _, p := range order {
			if p == self || p < 0 || p >= places || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLifelinesHypercube(t *testing.T) {
	// 8 places: place 0's hypercube neighbours are 1, 2, 4.
	got := Lifelines(0, 8)
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Lifelines(0,8) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lifelines(0,8) = %v, want %v", got, want)
		}
	}
}

func TestLifelinesNonPowerOfTwo(t *testing.T) {
	// 6 places: place 5 (101b) flips bits -> 4 (100b), 7 (skip), 1 (001b).
	got := Lifelines(5, 6)
	for _, n := range got {
		if n < 0 || n >= 6 || n == 5 {
			t.Fatalf("invalid lifeline neighbour %d in %v", n, got)
		}
	}
	if len(got) == 0 {
		t.Fatalf("place in a 6-node graph should have lifelines")
	}
}

func TestLifelinesSinglePlace(t *testing.T) {
	if got := Lifelines(0, 1); got != nil {
		t.Fatalf("Lifelines(0,1) = %v, want nil", got)
	}
}

// Property: lifeline graphs are symmetric within power-of-two clusters
// (i is a lifeline of j iff j is a lifeline of i).
func TestLifelinesSymmetryProperty(t *testing.T) {
	for _, places := range []int{2, 4, 8, 16} {
		adj := make(map[[2]int]bool)
		for p := 0; p < places; p++ {
			for _, n := range Lifelines(p, places) {
				adj[[2]int{p, n}] = true
			}
		}
		for e := range adj {
			if !adj[[2]int{e[1], e[0]}] {
				t.Fatalf("lifeline edge %v not symmetric in %d places", e, places)
			}
		}
	}
}

func TestParse(t *testing.T) {
	cases := map[string]Kind{
		"x10ws": X10WS, "X10WS": X10WS, "distws": DistWS,
		"DistWS-NS": DistWSNS, "nonselective": DistWSNS,
		"random": RandomWS, "lifeline": LifelineWS,
		"adaptive": Adaptive, "Adapt": Adaptive,
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatalf("Parse of unknown policy should error")
	}
}

func TestKindString(t *testing.T) {
	if DistWS.String() != "DistWS" || DistWSNS.String() != "DistWS-NS" {
		t.Fatalf("unexpected names: %v %v", DistWS, DistWSNS)
	}
	if Kind(250).String() == "" {
		t.Fatalf("out-of-range kind should still print")
	}
}

func TestKindsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%v.String()) = %v, %v", k, got, err)
		}
	}
}

func TestQuiesceThreshold(t *testing.T) {
	if got := FailedStealQuiesceThreshold(8); got != 8 {
		t.Fatalf("threshold(8) = %d, want 8", got)
	}
	if got := FailedStealQuiesceThreshold(0); got != 1 {
		t.Fatalf("threshold(0) = %d, want 1", got)
	}
}
