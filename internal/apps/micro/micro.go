// Package micro models the five fine-grained applications of the
// paper's granularity study (§VIII-Q2): merge sort (0.12 ms tasks),
// skyline matrix multiplication (0.93 ms), Monte-Carlo estimation of π
// (0.005 ms), matrix chain multiplication (0.09 ms), and random access
// (0.006 ms). Their task granularities sit well below the cost of a
// distributed steal, so DistWS gains nothing — and may lose slightly —
// against X10WS on them, supporting the paper's claim that only tasks
// with significant computation are candidates for distributed stealing.
//
// The study needs only their task graphs, so each app here is a model:
// a name and a trace generator, with no input, kernel or checksum.
package micro

import (
	"fmt"

	"distws/internal/apps"
	"distws/internal/trace"
)

// App is one micro app's task-graph model.
type App struct {
	name  string
	graph func(places int) (*trace.Graph, error)
}

// Name implements apps.Model.
func (a App) Name() string { return a.name }

// Trace implements apps.Model.
func (a App) Trace(places int) (*trace.Graph, error) { return a.graph(places) }

// Suite returns the five micro apps in the study's order.
func Suite() []apps.Model {
	return []apps.Model{
		App{"mergesort", func(places int) (*trace.Graph, error) { return mergeSort(30_000, places) }},
		flat("skyline", 384, 930_000, 8*(2*8+1)*4), // one row of a band-8 matrix per task
		flat("montecarlo-pi", 200, 5_000, 16),      // 100 000 samples in batches of 500
		App{"matchain", func(places int) (*trace.Graph, error) { return matChain(48, places) }},
		flat("randomaccess", 150, 6_000, 64), // 60 000 updates in batches of 400
	}
}

// flat models an app of nTasks independent flexible tasks of granNS
// each, homed cyclically over the places: the flat micro apps are regular
// workloads, so there is essentially no imbalance for DistWS to repair —
// only overhead to pay (§VIII-Q2).
func flat(name string, nTasks int, granNS int64, migBytes int) App {
	return App{name, func(places int) (*trace.Graph, error) {
		b := trace.NewBuilder(name)
		for i := 0; i < nTasks; i++ {
			b.Root(trace.Task{
				HomeMode: trace.HomeFixed,
				Home:     i % places,
				CostNS:   granNS,
				Flexible: true,
				MigBytes: migBytes,
				Blocks:   []uint64{uint64(i % 256)},
			})
		}
		g, err := b.Graph()
		if err != nil {
			return nil, fmt.Errorf("micro: %w", err)
		}
		return g, nil
	}}
}

// mergeSort models merge sort of n keys: one root per place over its
// n/places keys, halved recursively down to max(n/128, 32) keys, each
// task costing its segment length; calibrated to 0.12 ms.
func mergeSort(n, places int) (*trace.Graph, error) {
	cutoff := max(n/128, 32)
	b := trace.NewBuilder("mergesort")
	var rec func(parent, size int)
	rec = func(parent, size int) {
		if size <= cutoff {
			return
		}
		mid := size / 2
		for _, sz := range []int{mid, size - mid} {
			id := b.Child(parent, trace.Task{
				HomeMode: trace.HomeInherit,
				CostNS:   int64(sz),
				Flexible: true,
				MigBytes: 4 * sz,
			})
			rec(id, sz)
		}
	}
	per := n / places
	for p := 0; p < places; p++ {
		root := b.Root(trace.Task{
			HomeMode: trace.HomeFixed, Home: p,
			CostNS: int64(per), Flexible: true, MigBytes: 4 * per,
		})
		rec(root, per)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("mergesort: %w", err)
	}
	if _, err := apps.CalibrateFlexibleGranularity(g, 120_000); err != nil {
		return nil, err
	}
	return g, nil
}

// matChain models the matrix-chain-order DP over n matrices: each cell
// of a diagonal is a flexible task costing its k-loop length, homed in
// blocks, and each diagonal's coordinator at place 0 spawns the next when
// it finishes, a barrier per diagonal; calibrated to 0.09 ms.
func matChain(n, places int) (*trace.Graph, error) {
	b := trace.NewBuilder("matchain")
	prev := -1
	for l := 1; l < n; l++ {
		coord := trace.Task{
			HomeMode: trace.HomeFixed, Home: 0,
			CostNS: 1000, Flexible: false,
			BaseMsgs: places - 1, BaseBytes: 8 * (places - 1),
		}
		var cid int
		if prev < 0 {
			cid = b.Root(coord)
		} else {
			cid = b.Child(prev, coord)
		}
		prev = cid
		for i := 0; i+l < n; i++ {
			b.Child(cid, trace.Task{
				HomeMode: trace.HomeFixed,
				Home:     i * places / n,
				CostNS:   int64(l + 1), // k-loop length
				Flexible: true,
				MigBytes: 16 * (l + 1),
			})
		}
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("matchain: %w", err)
	}
	apps.SpawnAtEnd(g)
	if _, err := apps.CalibrateFlexibleGranularity(g, 90_000); err != nil {
		return nil, err
	}
	return g, nil
}
