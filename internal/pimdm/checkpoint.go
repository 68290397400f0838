package pimdm

import (
	"fmt"
	"sort"

	"mip6mcast/internal/engine"
	"mip6mcast/internal/netem"
)

// Checkpoint implements engine.MulticastEngine: the deterministic
// snapshot of all protocol state, including the Generation ID where the
// engine has one (neighbours hold hard state keyed to it, so a rebuild
// that drew a different GenID is a divergent rebuild). Timer expiries are
// not included — they live in the scheduler's pending-event queue,
// captured by the timeline checkpoint.
func (c *Core[E, D]) Checkpoint() engine.EngineCheckpoint {
	cp := engine.EngineCheckpoint{
		Engine:  c.Name(),
		Node:    c.Node.Name,
		GenID:   c.params.GenID,
		Entries: c.Entries(),
		Stats:   c.Stats,
	}
	for ifc, nbrs := range c.neighbors {
		for addr := range nbrs {
			cp.Neighbors = append(cp.Neighbors, ifaceName(ifc)+"/"+addr.String())
		}
	}
	sort.Strings(cp.Neighbors)
	for group, m := range c.localMembers {
		for ifc, n := range m {
			name := "-"
			if ifc != nil {
				name = ifaceName(ifc)
			}
			cp.LocalMembers = append(cp.LocalMembers, fmt.Sprintf("%s@%s=%d", group, name, n))
		}
	}
	sort.Strings(cp.LocalMembers)
	return cp
}

// Restore implements engine.MulticastEngine with verify-and-adopt
// semantics: the engine must already hold the checkpointed state
// (rebuilt by deterministic replay to the checkpoint's virtual time);
// Restore verifies it does and returns a descriptive diff error
// otherwise.
func (c *Core[E, D]) Restore(cp engine.EngineCheckpoint) error {
	return engine.VerifyCheckpoint(cp, c.Checkpoint())
}

func ifaceName(ifc *netem.Interface) string {
	if ifc == nil || ifc.Link == nil {
		return "?"
	}
	return ifc.Link.Name
}
