// Package expt is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§VII–VIII and the §X UTS study) from
// the application traces and the cluster simulator, and formats them next
// to the values the paper reports.
package expt

// PaperGranularityMS is Table I: task granularities in milliseconds.
var PaperGranularityMS = map[string]float64{
	"quicksort":  1.1,
	"turingring": 1.86,
	"kmeans":     383,
	"agglom":     529,
	"dmg":        732,
	"dmr":        899,
	"nbody":      623,
}

// PaperMissRates is Table II: L1d miss rates (%) at 128 workers, per
// policy, in order X10WS, DistWS-NS, DistWS.
var PaperMissRates = map[string][3]float64{
	"quicksort":  {1.7, 4.1, 2.2},
	"turingring": {1.9, 3.5, 2.3},
	"kmeans":     {2.1, 5.6, 3.0},
	"agglom":     {6.0, 10.9, 7.1},
	"dmg":        {41.1, 46.3, 42.3},
	"dmr":        {31.0, 37.7, 33.6},
	"nbody":      {14.0, 21.0, 16.0},
}

// PaperMessages is Table III: messages transmitted across nodes at 128
// workers, in order X10WS, DistWS-NS, DistWS.
var PaperMessages = map[string][3]int64{
	"quicksort":  {5_349_730, 8_196_604, 6_943_568},
	"turingring": {4_192_734, 7_895_344, 6_424_840},
	"kmeans":     {9_540_830, 12_375_106, 11_648_418},
	"agglom":     {8_996_422, 12_430_790, 11_800_547},
	"dmg":        {34_143_024, 42_689_149, 39_880_036},
	"dmr":        {28_582_822, 37_923_541, 32_892_145},
	"nbody":      {15_655_429, 21_938_135, 18_289_203},
}

// PaperBestGainPct records the headline Fig. 5 improvements the paper
// quotes: best DistWS speedup over X10WS per application (the overall
// range is 12–31%).
var PaperBestGainPct = map[string]float64{
	"dmg":   31,
	"dmr":   27,
	"nbody": 19,
}

// PaperName maps internal app names to the paper's display names.
var PaperName = map[string]string{
	"quicksort":     "Quicksort",
	"turingring":    "Turing Ring",
	"kmeans":        "k-Means",
	"agglom":        "Agglom",
	"dmg":           "DMG",
	"dmr":           "DMR",
	"nbody":         "n-Body",
	"mergesort":     "Merge sort",
	"skyline":       "Skyline MM",
	"montecarlo-pi": "Monte-Carlo pi",
	"matchain":      "Matrix chain",
	"randomaccess":  "Random access",
	"uts":           "UTS",
}
