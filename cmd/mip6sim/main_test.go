package main

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mip6mcast"
	"mip6mcast/internal/exp"
)

// TestListRoutesEveryParam captures the -list output and checks the route
// it names for each experiment parameter: only tquery, unsolicited and
// tracedir have flags, every -topo key is one parseTopoSpec accepts with
// the parameter's default as its value and maps onto that parameter, and
// -topo accepts no parameter listed as mip6simd only.
func TestListRoutesEveryParam(t *testing.T) {
	var buf bytes.Buffer
	listExperiments(&buf)
	listing := buf.String()
	flags := map[string]string{"tquery": "-tquery", "unsolicited": "-unsolicited", "tracedir": "-trace-out"}
	for _, e := range exp.All() {
		for _, sp := range e.Params {
			line := fmt.Sprintf("\n        %s %s (default %v; ", sp.Name, sp.Kind, sp.Default)
			_, rest, ok := strings.Cut(listing, line)
			if !ok {
				t.Errorf("%s: parameter %s is not listed", e.Name, sp.Name)
				continue
			}
			route, _, _ := strings.Cut(rest, "): ")
			flag, hasFlag := flags[sp.Name]
			switch {
			case hasFlag:
				if route != flag {
					t.Errorf("%s: %s is listed as set by %q, want %q", e.Name, sp.Name, route, flag)
				}
			case strings.HasPrefix(route, "-topo "):
				key := strings.TrimSuffix(strings.TrimPrefix(route, "-topo "), "=")
				spec := key + "=" + topoValue(sp.Default)
				p, err := parseTopoSpec(spec)
				if err != nil {
					t.Errorf("%s: %s is listed as set by %q, but -topo %s fails: %v", e.Name, sp.Name, route, spec, err)
				} else if _, ok := p[sp.Name]; !ok {
					t.Errorf("%s: -topo %s does not set %s", e.Name, spec, sp.Name)
				}
			case route != "mip6simd only":
				t.Errorf("%s: %s is listed as set by %q, which is no mip6sim flag", e.Name, sp.Name, route)
			default:
				if _, err := parseTopoSpec(sp.Name + "=" + topoValue(sp.Default)); err == nil {
					t.Errorf("%s: %s is listed as mip6simd only, but -topo accepts it", e.Name, sp.Name)
				}
			}
		}
	}
}

// topoValue writes a parameter value in -topo syntax: lists join with '+'.
func topoValue(v any) string {
	l, ok := v.([]int)
	if !ok {
		return fmt.Sprint(v)
	}
	parts := make([]string, len(l))
	for i, n := range l {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "+")
}

// TestTQueryFlagReachesParams parses -tquery as main does and checks what
// each experiment's tquery parameter resolves to. Given explicitly, the
// value reaches every Int parameter (smg, sld, smtu), 0 included, which
// inherits the base options (the RFC's 125 s); s44's sweep list takes a
// value above 0 as its one point and keeps its default list for 0. With
// no flag every parameter keeps its default.
func TestTQueryFlagReachesParams(t *testing.T) {
	ints, lists := 0, 0
	for _, args := range [][]string{nil, {"-tquery", "0"}, {"-tquery", "45"}} {
		fs := flag.NewFlagSet("mip6sim", flag.ContinueOnError)
		tquery := fs.Int("tquery", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		for _, e := range exp.All() {
			for _, sp := range e.Params {
				if sp.Name != "tquery" {
					continue
				}
				p := mip6mcast.ExpParams{}
				if given(fs, "tquery") {
					setTQuery(e, p, *tquery)
				}
				got, err := e.ResolveParams(p)
				if err != nil {
					t.Fatalf("%s %v: %v", e.Name, args, err)
				}
				want := sp.Default
				switch {
				case args == nil:
				case sp.Kind == exp.IntList:
					lists++
					if *tquery > 0 {
						want = []int{*tquery}
					}
				default:
					ints++
					want = *tquery
				}
				if !reflect.DeepEqual(got["tquery"], want) {
					t.Errorf("%s %v: tquery resolves to %v, want %v", e.Name, args, got["tquery"], want)
				}
			}
		}
	}
	if ints < 2*3 || lists < 2 {
		t.Errorf("checked %d Int and %d IntList tquery parameters under a given flag; want smg, sld, smtu and s44 under both values", ints, lists)
	}
}
