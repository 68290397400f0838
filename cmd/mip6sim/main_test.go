package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

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
