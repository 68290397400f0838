package engine

import (
	"fmt"
	"reflect"
)

// EngineCheckpoint is the versioned, deterministic snapshot of one
// engine instance's protocol state: the sorted (S,G) dump, PIM
// adjacencies, membership refcounts, and cumulative stats. Timer
// expiries are deliberately absent — they live in the scheduler's
// pending-event queue, which the timeline checkpoint records
// separately.
//
// The restore model is verify-and-adopt: a checkpoint is restored by
// re-executing the deterministic construction and driver program up to
// the checkpoint's virtual time, after which the engine necessarily
// holds the same state; VerifyCheckpoint then compares the rebuilt
// state against the snapshot field by field, catching spec drift,
// binary drift, or a non-deterministic rebuild with a descriptive error
// instead of a silently divergent tail.
type EngineCheckpoint struct {
	// Engine is the registry name ("pimdm", "hpimdm").
	Engine string `json:"engine"`
	// Node is the owning router's name.
	Node string `json:"node"`
	// GenID is the engine's Generation ID where the protocol has one
	// (hpimdm); zero otherwise.
	GenID uint32 `json:"gen_id,omitempty"`
	// Neighbors lists PIM adjacencies as "link/address", sorted.
	Neighbors []string `json:"neighbors,omitempty"`
	// LocalMembers lists membership refcounts as "group@link=n", sorted;
	// link "-" is the node-local (interface-less) refcount.
	LocalMembers []string `json:"local_members,omitempty"`
	// Entries is the engine's sorted (S,G) dump.
	Entries []SGInfo `json:"entries,omitempty"`
	// Stats is the cumulative protocol activity.
	Stats Stats `json:"stats"`
}

// VerifyCheckpoint compares a checkpointed engine snapshot against the
// snapshot recaptured after a rebuild and reports the first divergence
// as a descriptive error (nil when identical). checkpoint.Verify calls it
// for every router's engine.
func VerifyCheckpoint(want, got EngineCheckpoint) error {
	if want.Engine != got.Engine {
		return fmt.Errorf("engine: checkpoint is for engine %q, not %q", want.Engine, got.Engine)
	}
	if want.Node != got.Node {
		return fmt.Errorf("engine: %s checkpoint is for node %q, not %q", want.Engine, want.Node, got.Node)
	}
	where := want.Engine + " on " + want.Node
	if want.GenID != got.GenID {
		return fmt.Errorf("engine: %s generation ID diverged: checkpoint %d, rebuilt %d", where, want.GenID, got.GenID)
	}
	if err := diffStrings(where, "neighbor set", want.Neighbors, got.Neighbors); err != nil {
		return err
	}
	if err := diffStrings(where, "local members", want.LocalMembers, got.LocalMembers); err != nil {
		return err
	}
	if len(want.Entries) != len(got.Entries) {
		return fmt.Errorf("engine: %s (S,G) entries diverged: checkpoint has %d, rebuilt has %d", where, len(want.Entries), len(got.Entries))
	}
	for i := range want.Entries {
		if !reflect.DeepEqual(want.Entries[i], got.Entries[i]) {
			return fmt.Errorf("engine: %s entry %d diverged:\n  checkpoint: %+v\n  rebuilt:    %+v", where, i, want.Entries[i], got.Entries[i])
		}
	}
	if want.Stats != got.Stats {
		return fmt.Errorf("engine: %s stats diverged:\n  checkpoint: %+v\n  rebuilt:    %+v", where, want.Stats, got.Stats)
	}
	return nil
}

func diffStrings(where, what string, want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("engine: %s %s diverged: checkpoint %v, rebuilt %v", where, what, want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("engine: %s %s diverged at %d: checkpoint %q, rebuilt %q", where, what, i, want[i], got[i])
		}
	}
	return nil
}
