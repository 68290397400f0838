package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// JSONSchema identifies the result-file layout. Bump only with a new
// schema name — downstream bench trajectories key on it.
const JSONSchema = "mip6mcast/exp-result/v1"

// JSONValue is one cell's replicate statistics. A single replicate
// reports n=1 with 0-width spread.
type JSONValue struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// JSONRow is one labeled result row. Errors lists the failed
// replicates' messages (absent when every replicate succeeded); Values
// statistics then cover only the surviving replicates.
type JSONRow struct {
	Label  string               `json:"label"`
	Values map[string]JSONValue `json:"values"`
	Errors []string             `json:"errors,omitempty"`
}

// JSONResult is the machine-readable form of one experiment run.
type JSONResult struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Title      string         `json:"title"`
	Seed       int64          `json:"seed"`
	Replicates int            `json:"replicates"`
	Params     map[string]any `json:"params"`
	Columns    []string       `json:"columns"`
	Rows       []JSONRow      `json:"rows"`
}

// ResultJSON converts a run's Result into the stable JSON form: one row
// per point, holding its replicate statistics and its failed replicates'
// errors.
func ResultJSON(name string, ctx Context, p Params, r Result) JSONResult {
	jr := JSONResult{
		Schema:     JSONSchema,
		Experiment: name,
		Title:      r.Title,
		Seed:       ctx.Opt.Seed,
		Replicates: ctx.replicates(),
		Params:     map[string]any(p),
	}
	if jr.Params == nil {
		jr.Params = map[string]any{}
	}
	jr.Columns = r.StatsColumns
	for _, pt := range r.Stats {
		row := JSONRow{Label: pt.Label, Values: make(map[string]JSONValue, len(pt.Cols))}
		for col, s := range pt.Cols {
			row.Values[col] = JSONValue{Mean: s.Mean(), Std: s.Stddev(), CI95: s.CI95(), N: s.N()}
		}
		for _, e := range pt.Errs {
			if e != "" {
				row.Errors = append(row.Errors, e)
			}
		}
		jr.Rows = append(jr.Rows, row)
	}
	return jr
}

// WriteJSON writes one result file, <dir>/<experiment>.json, creating dir
// as needed, and returns the written path. Map keys marshal sorted, so
// output bytes are stable for a given result.
func WriteJSON(dir string, jr JSONResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, jr.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
