// Package suite assembles the paper's benchmark applications at runnable
// scales. The paper's own input sizes (§VII: 100M-element quicksort, 1M
// Turing Ring bodies, 220K n-Body bodies, 2M clustering points, 80K DMG
// points, 550K DMR triangles) are recorded in each app's doc comment; the
// default scales here preserve every workload's *shape* — task structure,
// skew, and Table I granularities (imposed by calibration) — while
// keeping trace generation and simulation fast enough to rerun the whole
// evaluation in seconds.
package suite

import (
	"fmt"

	"distws/internal/apps"
	"distws/internal/apps/agglom"
	"distws/internal/apps/dmg"
	"distws/internal/apps/dmr"
	"distws/internal/apps/kmeans"
	"distws/internal/apps/micro"
	"distws/internal/apps/nbody"
	"distws/internal/apps/qsort"
	"distws/internal/apps/turingring"
	"distws/internal/apps/uts"
)

// Scale multiplies the default workload sizes.
type Scale int

const (
	// Small is the default evaluation scale (seconds per experiment).
	Small Scale = 1
	// Medium is 4× Small (a few minutes for the full evaluation).
	Medium Scale = 4
)

// Paper returns the seven applications of the paper's evaluation (§VII)
// in presentation order.
func Paper(scale Scale, seed int64) []apps.App {
	s := int(scale)
	if s < 1 {
		s = 1
	}
	return []apps.App{
		qsort.New(30_000*s, seed),
		turingring.New(256*s, 10, seed),
		kmeans.New(8_000*s, 5, seed),
		agglom.New(1_200*s, seed),
		dmg.New(5_000*s, seed),
		dmr.New(2_000*s, seed),
		nbody.New(4_000*s, 2, seed),
	}
}

// Micro returns the task-graph models of the five fine-grained apps of
// the granularity study (§VIII-Q2).
func Micro() []apps.Model { return micro.Suite() }

// UTS returns the Unbalanced Tree Search instance for the §X comparison.
func UTS(seed int64) *uts.App { return uts.New(4, 11, 400_000, seed) }

// ByName resolves a paper-suite application or UTS by its table name.
func ByName(name string, scale Scale, seed int64) (apps.App, error) {
	for _, a := range Paper(scale, seed) {
		if a.Name() == name {
			return a, nil
		}
	}
	if name == "uts" {
		return UTS(seed), nil
	}
	return nil, fmt.Errorf("suite: unknown application %q", name)
}

// Names lists the paper-suite application names in order.
func Names() []string {
	out := make([]string, 0, 7)
	for _, a := range Paper(Small, 1) {
		out = append(out, a.Name())
	}
	return out
}
