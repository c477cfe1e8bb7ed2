package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the contract this program is run and judged by.
// The program reads it rather than repeating it, so the metric names it
// prints and the bounds -compare applies cannot drift from the file.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &s, nil
}

// pick returns exactly the listed metrics from have, checking units: a
// listed metric the run did not produce, or produced in another unit, is an
// error, so the output always carries every metric the contract names.
func pick(list []specMetric, have rows) (rows, error) {
	out := rows{}
	for _, m := range list {
		got, ok := have[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = got
	}
	return out, nil
}
