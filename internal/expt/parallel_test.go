package expt

import (
	"reflect"
	"strings"
	"testing"

	"distws/internal/apps/suite"
	"distws/internal/sched"
	"distws/internal/sim"
)

// renderDeterministic regenerates every exhibit whose content is a pure
// function of the seed and concatenates the rendered text. Fig. 4 is
// covered separately: its host wall-clock column measures the real
// sequential implementations and differs between any two runs, parallel or
// not.
func renderDeterministic(t *testing.T, r *Runner) string {
	t.Helper()
	var b strings.Builder
	f3, err := r.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig3(f3))
	f5, err := r.Fig5(nil)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig5(f5))
	t1, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderTable1(t1))
	t2, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderTable2(t2))
	t3, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderTable3(t3))
	f6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig6(f6))
	f7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFig7(f7))
	gr, err := r.GranularityStudy()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderGranularity(gr))
	uts, err := r.UTSStudy()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderUTS(uts))
	return b.String()
}

// TestParallelHarnessDeterminism pins the tentpole guarantee of the
// parallel harness: a forced-sequential run (Workers=1) and a wide
// parallel run (Workers=8) must produce byte-identical table and figure
// text, across multiple seeds.
func TestParallelHarnessDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seq := New(suite.Small, seed)
		seq.Workers = 1
		par := New(suite.Small, seed)
		par.Workers = 8

		seqOut := renderDeterministic(t, seq)
		parOut := renderDeterministic(t, par)
		if seqOut != parOut {
			t.Errorf("seed %d: parallel harness output differs from sequential run:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seed, seqOut, parOut)
		}

		// Fig. 4's deterministic column (virtual sequential time) must also
		// agree; the wall column is a live host measurement and may not.
		seqF4, err := seq.Fig4()
		if err != nil {
			t.Fatal(err)
		}
		parF4, err := par.Fig4()
		if err != nil {
			t.Fatal(err)
		}
		for i := range seqF4 {
			if seqF4[i].App != parF4[i].App || seqF4[i].VirtualMS != parF4[i].VirtualMS {
				t.Errorf("seed %d: Fig4 row %d differs: %+v vs %+v", seed, i, seqF4[i], parF4[i])
			}
		}
	}
}

// TestPoliciesDoNotMutateSharedGraph proves the graph-reuse contract: the
// trace cache hands the same *trace.Graph to every policy run (including
// concurrent ones), so the simulator must treat it as strictly read-only.
// Traces are deterministic, so a second generation is the reference copy.
func TestPoliciesDoNotMutateSharedGraph(t *testing.T) {
	r := New(suite.Small, 1)
	for _, a := range []string{"dmg", "uts"} {
		app, err := suite.ByName(a, suite.Small, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := r.Trace(app, r.Cluster.Places)
		if err != nil {
			t.Fatal(err)
		}
		want, err := app.Trace(r.Cluster.Places)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range sched.Kinds() {
			if _, err := sim.Run(g, r.Cluster, k, sim.Options{Seed: 1}); err != nil {
				t.Fatalf("%s/%v: %v", a, k, err)
			}
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: graph mutated by policy runs", a)
		}
	}
}

// TestTraceSingleflight checks that concurrent Trace calls for the same
// key share one generated graph rather than racing to build duplicates.
func TestTraceSingleflight(t *testing.T) {
	r := New(suite.Small, 1)
	app := r.Apps[0]
	const n = 8
	graphs := make([]any, n)
	err := r.forEach(n, func(i int) error {
		g, err := r.Trace(app, 4)
		graphs[i] = g
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("Trace call %d returned a distinct graph", i)
		}
	}
}
