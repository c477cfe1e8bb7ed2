package fault

import "testing"

func TestNilPlanAndInjectorAreNoFault(t *testing.T) {
	var p *Plan
	if err := p.Validate(4); err != nil {
		t.Fatalf("nil plan Validate: %v", err)
	}
	var in *Injector
	if in.Drop(0, 1) {
		t.Fatalf("nil injector dropped a message")
	}
	if in.SpikeNS(0, 1) != 0 {
		t.Fatalf("nil injector spiked")
	}
	if _, ok := in.CrashAtNS(0); ok {
		t.Fatalf("nil injector crashed a place")
	}
	if NewInjector(nil) != nil {
		t.Fatalf("NewInjector(nil) should be nil")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", Plan{}, true},
		{"good crash", Plan{Crashes: []Crash{{Place: 1, AtVirtualNS: 5}}}, true},
		{"bad place", Plan{Crashes: []Crash{{Place: 9}}}, false},
		{"negative place", Plan{Crashes: []Crash{{Place: -1}}}, false},
		{"all places crash", Plan{Crashes: []Crash{{Place: 0}, {Place: 1}, {Place: 2}, {Place: 3}}}, false},
		{"bad drop prob", Plan{DropProb: 1.5}, false},
		{"bad link prob", Plan{Links: []Link{{From: -1, To: -1, DropProb: -0.1}}}, false},
		{"good partition", Plan{Partitions: []Partition{{GroupA: []int{0, 1}, AtNS: 10, HealNS: 20}}}, true},
		{"partition never heals", Plan{Partitions: []Partition{{GroupA: []int{3}, AtNS: 10}}}, true},
		{"partition covers cluster", Plan{Partitions: []Partition{{GroupA: []int{0, 1, 2, 3}, AtNS: 10}}}, false},
		{"partition heals before split", Plan{Partitions: []Partition{{GroupA: []int{0}, AtNS: 10, HealNS: 5}}}, false},
		{"partition bad place", Plan{Partitions: []Partition{{GroupA: []int{7}, AtNS: 10}}}, false},
		{"good gray", Plan{Grays: []Gray{{From: 0, To: -1, ExtraNS: 100}}}, true},
		{"gray zero latency", Plan{Grays: []Gray{{From: 0, To: 1}}}, false},
		{"gray inverted window", Plan{Grays: []Gray{{From: 0, To: 1, ExtraNS: 5, AtNS: 10, UntilNS: 5}}}, false},
		{"good flap", Plan{Flaps: []Flap{{Place: 1, AtNS: 10, DownNS: 5, UpNS: 5, Cycles: 2}}}, true},
		{"flap no up between cycles", Plan{Flaps: []Flap{{Place: 1, AtNS: 10, DownNS: 5, Cycles: 2}}}, false},
		{"flap no trigger", Plan{Flaps: []Flap{{Place: 1}}}, false},
		{"good join", Plan{Joins: []Join{{Place: 2, AtNS: 50}}}, true},
		{"join twice", Plan{Joins: []Join{{Place: 2, AtNS: 50}, {Place: 2, AtNS: 60}}}, false},
		{"everyone joins late", Plan{Joins: []Join{{Place: 0, AtNS: 1}, {Place: 1, AtNS: 1}, {Place: 2, AtNS: 1}, {Place: 3, AtNS: 1}}}, false},
		{"good drain", Plan{Drains: []Drain{{Place: 1, AtNS: 50}}}, true},
		{"drain no trigger", Plan{Drains: []Drain{{Place: 1}}}, false},
		{"crash+drain leaves none", Plan{
			Crashes: []Crash{{Place: 0, AtVirtualNS: 5}, {Place: 1, AtVirtualNS: 5}},
			Drains:  []Drain{{Place: 2, AtNS: 9}, {Place: 3, AtNS: 9}},
		}, false},
		{"crash+join+flap leave one untouched", Plan{
			Crashes: []Crash{{Place: 0, AfterTasks: 5}},
			Joins:   []Join{{Place: 1, AtNS: 50}},
			Flaps:   []Flap{{Place: 2, AtNS: 10, DownNS: 5, Cycles: 1}},
		}, true},
		// No place is up throughout: place 0's work has nowhere to go while
		// 1 and 2 are still absent and 3 is inside its down window.
		{"crash while the rest are absent or flapped", Plan{
			Crashes: []Crash{{Place: 0, AfterTasks: 5}},
			Joins:   []Join{{Place: 1, AtNS: 50}, {Place: 2, AtNS: 50}},
			Flaps:   []Flap{{Place: 3, AtNS: 10, DownNS: 5, Cycles: 1}},
		}, false},
		{"drain while the rest join late", Plan{
			Drains: []Drain{{Place: 0, AtNS: 9}},
			Joins:  []Join{{Place: 1, AtNS: 50}, {Place: 2, AtNS: 50}, {Place: 3, AtNS: 50}},
		}, false},
		{"bad dup prob", Plan{DupProb: 2}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCrashLookup(t *testing.T) {
	p := &Plan{Crashes: []Crash{
		{Place: 1, AtVirtualNS: 500},
		{Place: 2, AfterTasks: 10},
	}}
	in := NewInjector(p)
	if at, ok := in.CrashAtNS(1); !ok || at != 500 {
		t.Fatalf("CrashAtNS(1) = %d,%v", at, ok)
	}
	if _, ok := in.CrashAtNS(2); ok {
		t.Fatalf("place 2 is step-triggered, not time-triggered")
	}
	if n, ok := in.CrashAfterTasks(2); !ok || n != 10 {
		t.Fatalf("CrashAfterTasks(2) = %d,%v", n, ok)
	}
	if _, ok := in.CrashAfterTasks(0); ok {
		t.Fatalf("place 0 never crashes")
	}
}

// Two injectors with the same plan asked in the same order must make
// identical decisions: this is what makes chaos runs reproducible.
func TestDropDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, DropProb: 0.3}
	a, b := NewInjector(plan), NewInjector(plan)
	drops := 0
	for i := 0; i < 1000; i++ {
		from, to := i%4, (i+1)%4
		da, db := a.Drop(from, to), b.Drop(from, to)
		if da != db {
			t.Fatalf("decision %d diverged: %v vs %v", i, da, db)
		}
		if da {
			drops++
		}
	}
	// 30% nominal over 1000 draws: allow a generous band.
	if drops < 200 || drops > 400 {
		t.Fatalf("dropped %d of 1000 at p=0.3", drops)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a := NewInjector(&Plan{Seed: 1, DropProb: 0.5})
	b := NewInjector(&Plan{Seed: 2, DropProb: 0.5})
	same := true
	for i := 0; i < 64; i++ {
		if a.Drop(0, 1) != b.Drop(0, 1) {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced an identical 64-decision schedule")
	}
}

func TestLinkOverride(t *testing.T) {
	in := NewInjector(&Plan{
		Seed:     7,
		DropProb: 0, // cluster-wide: lossless
		Links:    []Link{{From: 2, To: -1, DropProb: 1}},
	})
	for i := 0; i < 16; i++ {
		if in.Drop(0, 1) {
			t.Fatalf("lossless link dropped")
		}
		if !in.Drop(2, 3) {
			t.Fatalf("p=1 link delivered")
		}
	}
}

func TestSpike(t *testing.T) {
	in := NewInjector(&Plan{Seed: 3, SpikeProb: 1, SpikeNS: 250})
	if got := in.SpikeNS(0, 1); got != 250 {
		t.Fatalf("SpikeNS = %d, want 250", got)
	}
	none := NewInjector(&Plan{Seed: 3})
	if got := none.SpikeNS(0, 1); got != 0 {
		t.Fatalf("spike-free plan spiked %d", got)
	}
}

func TestPartitionWindow(t *testing.T) {
	in := NewInjector(&Plan{Partitions: []Partition{{GroupA: []int{0, 1}, AtNS: 100, HealNS: 200}}})
	if in.PartitionedAt(0, 2, 50) {
		t.Fatalf("partition active before AtNS")
	}
	if !in.PartitionedAt(0, 2, 100) || !in.PartitionedAt(2, 0, 150) {
		t.Fatalf("cross-cut message delivered during partition")
	}
	if in.PartitionedAt(0, 1, 150) || in.PartitionedAt(2, 3, 150) {
		t.Fatalf("same-side message cut")
	}
	if in.PartitionedAt(0, 2, 200) {
		t.Fatalf("partition active after heal")
	}
	if in.PartitionedAt(0, 0, 150) {
		t.Fatalf("self-send partitioned")
	}
	forever := NewInjector(&Plan{Partitions: []Partition{{GroupA: []int{0}, AtNS: 10}}})
	if !forever.PartitionedAt(0, 3, 1<<40) {
		t.Fatalf("HealNS=0 partition should never heal")
	}
	var nilInj *Injector
	if nilInj.PartitionedAt(0, 1, 50) {
		t.Fatalf("nil injector partitioned")
	}
}

func TestGrayWindow(t *testing.T) {
	in := NewInjector(&Plan{Grays: []Gray{
		{From: 0, To: 1, ExtraNS: 100},
		{From: 0, To: -1, ExtraNS: 30, AtNS: 50, UntilNS: 150},
	}})
	if got := in.GrayNS(0, 1, 10); got != 100 {
		t.Fatalf("GrayNS(0,1,10) = %d, want 100 (window-less gray always active)", got)
	}
	if got := in.GrayNS(0, 1, 60); got != 130 {
		t.Fatalf("GrayNS(0,1,60) = %d, want 130 (both grays stack)", got)
	}
	if got := in.GrayNS(0, 2, 60); got != 30 {
		t.Fatalf("GrayNS(0,2,60) = %d, want 30 (wildcard To)", got)
	}
	if got := in.GrayNS(0, 2, 150); got != 0 {
		t.Fatalf("GrayNS(0,2,150) = %d, want 0 after UntilNS", got)
	}
	if got := in.GrayNS(1, 0, 60); got != 0 {
		t.Fatalf("GrayNS(1,0,60) = %d, want 0 (no matching link)", got)
	}
	var nilInj *Injector
	if nilInj.GrayNS(0, 1, 60) != 0 {
		t.Fatalf("nil injector grayed")
	}
}

func TestFlapSchedule(t *testing.T) {
	f := Flap{Place: 2, AtNS: 100, DownNS: 50, UpNS: 30, Cycles: 2}
	cases := []struct {
		now  int64
		down bool
	}{
		{0, false}, {99, false},
		{100, true}, {149, true}, // first outage [100,150)
		{150, false}, {179, false}, // recovered [150,180)
		{180, true}, {229, true}, // second outage [180,230)
		{230, false}, {1 << 40, false}, // cycles exhausted
	}
	in := NewInjector(&Plan{Flaps: []Flap{f}})
	for _, c := range cases {
		if got := f.DownAt(c.now); got != c.down {
			t.Errorf("DownAt(%d) = %v, want %v", c.now, got, c.down)
		}
		if got := in.FlapDownAt(2, c.now); got != c.down {
			t.Errorf("FlapDownAt(2,%d) = %v, want %v", c.now, got, c.down)
		}
		if in.FlapDownAt(1, c.now) {
			t.Errorf("place 1 never flaps")
		}
	}
	var nilInj *Injector
	if nilInj.FlapDownAt(2, 120) {
		t.Fatalf("nil injector flapped")
	}
}

func TestDuplicateDeterminism(t *testing.T) {
	a := NewInjector(&Plan{Seed: 11, DupProb: 0.5})
	b := NewInjector(&Plan{Seed: 11, DupProb: 0.5})
	dups := 0
	for i := 0; i < 1000; i++ {
		da, db := a.Duplicate(0, 1), b.Duplicate(0, 1)
		if da != db {
			t.Fatalf("decision %d diverged", i)
		}
		if da {
			dups++
		}
	}
	if dups < 350 || dups > 650 {
		t.Fatalf("duplicated %d of 1000 at p=0.5", dups)
	}
	var nilInj *Injector
	if nilInj.Duplicate(0, 1) {
		t.Fatalf("nil injector duplicated")
	}
}

// RoundTrip is the seven primitive decisions in the order the runtime and
// the simulator used to make them inline — partition, drop there, drop
// back, spike, gray there, gray back, duplicate of the reply — so a seeded
// plan keeps the schedule it had before the two call sites shared it.
func TestRoundTripMatchesPrimitiveOrder(t *testing.T) {
	plan := &Plan{
		Seed:       9,
		DropProb:   0.2,
		SpikeProb:  0.3,
		SpikeNS:    700,
		DupProb:    0.25,
		Links:      []Link{{From: 1, To: -1, DropProb: 0.5}},
		Partitions: []Partition{{GroupA: []int{0, 1}, AtNS: 2_000, HealNS: 4_000}},
		Grays:      []Gray{{From: -1, To: 2, AtNS: 1_000, UntilNS: 8_000, ExtraNS: 90}},
	}
	a, b := NewInjector(plan), NewInjector(plan)
	var losses, delayed, dups int
	for i := 0; i < 10_000; i++ {
		thief, victim, now := i%4, (i+1+i/4%3)%4, int64(i)
		lost, extraNS, dup := a.RoundTrip(thief, victim, now)

		wantLost := b.PartitionedAt(thief, victim, now) || b.Drop(thief, victim) || b.Drop(victim, thief)
		var wantExtra int64
		wantDup := false
		if !wantLost {
			wantExtra = b.SpikeNS(thief, victim) + b.GrayNS(thief, victim, now) + b.GrayNS(victim, thief, now)
			wantDup = b.Duplicate(victim, thief)
		}
		if lost != wantLost || extraNS != wantExtra || dup != wantDup {
			t.Fatalf("draw %d (%d→%d at %d): RoundTrip = (%v, %d, %v), primitives = (%v, %d, %v)",
				i, thief, victim, now, lost, extraNS, dup, wantLost, wantExtra, wantDup)
		}
		if lost {
			losses++
		}
		if extraNS > 0 {
			delayed++
		}
		if dup {
			dups++
		}
	}
	if losses == 0 || delayed == 0 || dups == 0 {
		t.Fatalf("plan exercised too little: %d lost, %d delayed, %d duplicated", losses, delayed, dups)
	}
	var nilInj *Injector
	if lost, extraNS, dup := nilInj.RoundTrip(0, 1, 0); lost || extraNS != 0 || dup {
		t.Fatalf("nil injector faulted a round trip")
	}
}
