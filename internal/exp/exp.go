// Package exp is the experiment engine: a registry of named experiments
// with declared parameter schemas, and a sweep runner that fans
// replicate × parameter-point timelines across parallel workers and
// reduces the replicates into mean / stddev / 95% CI statistics.
//
// Every paper artifact (Figures 1–4, Table 1, the §4.3/§4.4 sweeps and
// the extension studies) is one registered Experiment; adding a new study
// is a registry entry, not a new dispatch arm. The engine owns the three
// cross-cutting concerns the bespoke runners used to duplicate:
// deterministic per-replicate seed derivation, worker fan-out over
// sim.RunParallel, and machine-readable JSON artifact emission.
package exp

import (
	"fmt"
	"sync"

	"mip6mcast/internal/metrics"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
	"mip6mcast/internal/telemetry"
	"time"
)

// Kind types an experiment parameter.
type Kind int

// Parameter kinds.
const (
	Bool Kind = iota
	Int
	Float
	IntList
	FloatList
	String
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case IntList:
		return "[]int"
	case FloatList:
		return "[]float"
	case String:
		return "string"
	default:
		return "?"
	}
}

// Param declares one experiment parameter: its name, what it means, its
// type and its default. The engine validates supplied Params against this
// schema and fills omitted ones from Default.
type Param struct {
	Name    string
	Desc    string
	Kind    Kind
	Default any
}

// Params carries parameter values by name. Values must match the declared
// Kind (ints may stand in for floats). Use the typed accessors after
// resolution; they panic on schema violations, which ResolveParams rules
// out.
type Params map[string]any

// Bool returns a boolean parameter.
func (p Params) Bool(name string) bool { return p[name].(bool) }

// Int returns an integer parameter.
func (p Params) Int(name string) int { return p[name].(int) }

// Float returns a float parameter (integers coerce).
func (p Params) Float(name string) float64 {
	if v, ok := p[name].(int); ok {
		return float64(v)
	}
	return p[name].(float64)
}

// Ints returns an integer-list parameter. The returned slice is shared;
// callers must not mutate it.
func (p Params) Ints(name string) []int { return p[name].([]int) }

// Floats returns a float-list parameter. The returned slice is shared;
// callers must not mutate it.
func (p Params) Floats(name string) []float64 { return p[name].([]float64) }

// Str returns a string parameter.
func (p Params) Str(name string) string { return p[name].(string) }

// Context carries the run-wide knobs every experiment shares: the base
// simulation options (including the master seed), the replicate count for
// sweep experiments, and the worker parallelism.
type Context struct {
	// Opt is the base scenario configuration. Opt.Seed is the master seed
	// from which per-replicate seeds derive.
	Opt scenario.Options
	// Replicates is how many independently-seeded timelines each sweep
	// point runs (minimum 1).
	Replicates int
	// Workers bounds timeline parallelism; <= 0 selects GOMAXPROCS.
	Workers int

	// Progress, when non-nil, receives one CellStats per completed
	// timeline cell. The engine serializes calls, so reporters need no
	// locking; delivery order follows completion order, which depends on
	// the worker schedule (measurements themselves stay deterministic).
	Progress func(CellStats)
	// Recorder, when non-nil, supplies the observability recorder for one
	// (point, replicate) cell before its timeline is built; return nil to
	// skip recording that cell. Called from parallel workers — the factory
	// must be safe for concurrent use, and each returned recorder belongs
	// to exactly one timeline.
	Recorder func(point, replicate int) *obs.Recorder
	// Telemetry, when non-nil, supplies the time-series registry for one
	// (point, replicate) cell; return nil to skip sampling that cell. The
	// same concurrency contract as Recorder applies: one registry, one
	// timeline.
	Telemetry func(point, replicate int) *telemetry.Registry
}

func (c Context) replicates() int {
	if c.Replicates < 1 {
		return 1
	}
	return c.Replicates
}

// Result is what an experiment run produces: a rendered-table view
// (Title/Columns/Rows), the per-point replicate statistics when the
// experiment swept, and an optional typed artifact for programmatic
// consumers (tests, benchmarks and the examples).
type Result struct {
	Title   string
	Columns []string
	Rows    []metrics.Row

	// StatsColumns and Stats are set by sweep experiments: the measured
	// column order and the replicate-reduced statistics per point.
	StatsColumns []string
	Stats        []PointStats

	// Artifact carries the experiment's typed result (e.g. an F1Result).
	// It is for in-process consumers and is not serialized.
	Artifact any
}

// Render formats the result as an aligned text table.
func (r Result) Render() string {
	return metrics.Table(r.Title, r.Columns, r.Rows)
}

// Experiment is one registered, parameterized study.
type Experiment struct {
	// Name is the registry key (the CLI's -experiment id).
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Params declares the accepted parameters and their defaults.
	Params []Param
	// Sweep marks experiments whose rows are replicate-reduced statistics
	// (they honor Context.Replicates).
	Sweep bool
	// Run executes the experiment. p has been resolved against Params:
	// every declared parameter is present and correctly typed.
	Run func(ctx Context, p Params) Result
}

// HasParam reports whether the schema declares a parameter.
func (e *Experiment) HasParam(name string) bool {
	for _, sp := range e.Params {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// ResolveParams validates p against the schema and returns a complete
// parameter set with defaults filled in. Unknown names and kind
// mismatches are errors.
func (e *Experiment) ResolveParams(p Params) (Params, error) {
	out := make(Params, len(e.Params))
	for _, sp := range e.Params {
		out[sp.Name] = sp.Default
	}
	for name, v := range p {
		var sp *Param
		for i := range e.Params {
			if e.Params[i].Name == name {
				sp = &e.Params[i]
				break
			}
		}
		if sp == nil {
			return nil, fmt.Errorf("experiment %q: unknown parameter %q", e.Name, name)
		}
		cv, err := coerce(sp.Kind, v)
		if err != nil {
			return nil, fmt.Errorf("experiment %q, parameter %q: %v", e.Name, name, err)
		}
		out[name] = cv
	}
	return out, nil
}

// coerce converts v to kind k. Besides Go values it takes the forms
// encoding/json decodes into an any: an integral float64 is an Int, and a
// []any of numbers is an IntList or a FloatList.
func coerce(k Kind, v any) (any, error) {
	switch k {
	case Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case Int:
		switch x := v.(type) {
		case int:
			return x, nil
		case float64:
			if x == float64(int(x)) {
				return int(x), nil
			}
		}
	case Float:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int:
			return float64(x), nil
		}
	case IntList:
		switch x := v.(type) {
		case []int:
			return x, nil
		case []any:
			return coerceEach[int](Int, x)
		}
	case FloatList:
		switch x := v.(type) {
		case []float64:
			return x, nil
		case []int:
			out := make([]float64, len(x))
			for i, n := range x {
				out[i] = float64(n)
			}
			return out, nil
		case []any:
			return coerceEach[float64](Float, x)
		}
	case String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("want %s, got %T", k, v)
}

// coerceEach converts every element of a decoded JSON list to kind k.
func coerceEach[T any](k Kind, l []any) ([]T, error) {
	out := make([]T, len(l))
	for i, e := range l {
		v, err := coerce(k, e)
		if err != nil {
			return nil, fmt.Errorf("element %d: %v", i, err)
		}
		out[i] = v.(T)
	}
	return out, nil
}

// The process-wide registry. Registration happens in package init
// functions; lookups may run from parallel tests, hence the lock.
var (
	regMu    sync.RWMutex
	registry = map[string]*Experiment{}
	regOrder []string
)

// Register adds an experiment to the registry. It panics on an empty
// name, a nil Run, or a duplicate registration — all programming errors.
func Register(e *Experiment) {
	if e == nil || e.Name == "" {
		panic("exp: Register with empty experiment name")
	}
	if e.Run == nil {
		panic(fmt.Sprintf("exp: experiment %q has no Run function", e.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.Name))
	}
	registry[e.Name] = e
	regOrder = append(regOrder, e.Name)
}

// Get returns a registered experiment by name.
func Get(name string) (*Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names returns all registered experiment names in registration order
// (the canonical "run all" order).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// All returns all registered experiments in registration order.
func All() []*Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Experiment, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, registry[name])
	}
	return out
}

// Run looks up, validates and executes one experiment.
func Run(name string, ctx Context, p Params) (Result, error) {
	e, ok := Get(name)
	if !ok {
		return Result{}, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	rp, err := e.ResolveParams(p)
	if err != nil {
		return Result{}, err
	}
	return e.Run(ctx, rp), nil
}

// ForEach runs n independent timeline bodies under the context's worker
// budget. It is the non-sweep counterpart of Sweep: experiments with a
// fixed small set of variants (the four approaches, tunnel vs local) use
// it to occupy idle cores while staying deterministic — body i must
// depend only on (opt, i). opt is the context's base options with the
// per-variant observability hooks (Recorder, progress capture) already
// wired in; bodies must build their networks from it for those hooks to
// take effect.
// A panicking body is contained to its variant and reported through
// Progress as a failed cell, like a Sweep replicate.
func ForEach(ctx Context, n int, body func(opt scenario.Options, i int)) {
	sim.RunParallel(n, ctx.Workers, func(i int) {
		opt := ctx.Opt
		var scheds []*sim.Scheduler
		ctx.prepareCell(&opt, i, 0, &scheds)
		var start time.Time
		if ctx.Progress != nil {
			start = time.Now()
		}
		cellErr := contain(func() { body(opt, i) })
		ctx.reportCell(i, 0, "", time.Since(start), scheds, nil, cellErr)
	})
}
