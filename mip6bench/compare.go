package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run read back from its saved standard output.
type savedRun struct {
	stamp
	digest string
	res    result
}

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareRuns prints, for each workload and metric, both sides' median and
// quartiles, the change, the fraction of run pairs B wins and a verdict
// against the bound BENCHMARK.json fixes. Run i of A pairs with run i of B
// of the same workload and trace mode. It reports whether any end-to-end
// metric regressed.
func compareRuns(out io.Writer, benchFile, pathA, pathB string) (regressed bool, err error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return false, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchFile, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	for _, w := range workloads {
		ua, ub := pick(a, w.name, 0), pick(b, w.name, 0)
		ta, tb := pick(a, w.name, 1), pick(b, w.name, 1)
		if len(ua)+len(ub)+len(ta)+len(tb) == 0 {
			continue
		}
		fmt.Fprintf(out, "\n%s: A %d+%d runs, B %d+%d runs (untraced+traced)\n", w.name, len(ua), len(ta), len(ub), len(tb))
		fmt.Fprintf(out, "  %-28s %-34s %-34s %8s %6s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "B wins", "verdict")
		if len(ua) > 0 && len(ub) > 0 {
			for _, m := range def.EndToEnd {
				va, vb := series(ua, m.Name), series(ub, m.Name)
				v, wins, pairs := verdict(va, vb, m.Better, m.Bound)
				regressed = regressed || v == "regression"
				fmt.Fprintf(out, "  %-28s %-34s %-34s %+7.1f%% %5.0f%% %3d/%-3d  %s\n", m.Name,
					summary(va), summary(vb), 100*change(va, vb), 100*m.Bound, wins, pairs, v)
			}
		}
		if len(ta) > 0 && len(tb) > 0 {
			for _, m := range def.PerLayer {
				va, vb := series(ta, m.Name), series(tb, m.Name)
				_, wins, pairs := verdict(va, vb, m.Better, 0)
				fmt.Fprintf(out, "  %-28s %-34s %-34s %+7.1f%% %6s %3d/%-3d\n", m.Name,
					summary(va), summary(vb), 100*change(va, vb), "-", wins, pairs)
			}
			for i := 0; i < min(len(ta), len(tb)); i++ {
				if ta[i].Seed == tb[i].Seed && ta[i].digest != tb[i].digest {
					fmt.Fprintf(out, "  model.digest differs at seed %d: %s vs %s\n", ta[i].Seed, ta[i].digest, tb[i].digest)
				}
			}
		}
	}
	return regressed, nil
}

// verdict judges B against A for one metric: "gain" when B wins at least
// nine tenths of the pairs and the medians differ by more than A's
// interquartile range; "regression" when B's median is worse by more than
// the bound; "unresolved" when A's own spread exceeds the bound and not
// every B run beats every A run; "same" otherwise.
func verdict(a, b []float64, better string, bound float64) (v string, wins, pairs int) {
	sign := 1.0 // positive differences are worse
	if better == "higher" {
		sign = -1
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return "no data", wins, pairs
	}
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	worse := sign * (medB - medA)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) < 0
		}
	}
	switch {
	case worse < 0 && 10*wins >= 9*pairs && -worse > q3-q1:
		return "gain", wins, pairs
	case worse > bound*math.Abs(medA):
		return "regression", wins, pairs
	case q3-q1 > bound*math.Abs(medA) && !allBetter:
		return "unresolved", wins, pairs
	}
	return "same", wins, pairs
}

func change(a, b []float64) float64 {
	return ratio(median(b)-median(a), math.Abs(median(a)))
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

func pick(runs []savedRun, workload string, trace int) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

func series(runs []savedRun, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readRuns reads saved run output from a file, or from every file of a
// directory in name order. Each run is its stamp line, in a traced run its
// model line, and its result line; other lines are skipped.
func readRuns(path string) ([]savedRun, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	}
	var runs []savedRun
	for _, name := range files {
		rs, err := readRunFile(name)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

func readRunFile(name string) ([]savedRun, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	var cur *savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe struct {
			Kind    string          `json:"mip6bench"`
			Digest  string          `json:"model.digest"`
			Metrics json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, n, err)
		}
		switch {
		case probe.Kind == "stamp":
			cur = &savedRun{}
			if err := json.Unmarshal([]byte(line), &cur.stamp); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", name, n, err)
			}
		case probe.Kind == "model" && cur != nil:
			cur.digest = probe.Digest
		case probe.Metrics != nil:
			if cur == nil {
				return nil, fmt.Errorf("%s:%d: result line without a stamp line before it", name, n)
			}
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", name, n, err)
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	return runs, sc.Err()
}
