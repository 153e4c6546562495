//go:build !race

package contextmgr

import "testing"

// TestReplayAllocBudget pins the allocations boot recovery makes per record
// of the seeded session log (wal.Open and Store.Persist included). The race
// detector's instrumentation allocates on its own, hence the build tag.
//
//	ctx.setprop: the three path strings, the path slice, name and value,
//	  plus the property map's growth.
//	ctx.placeholder: its three names, the pinned clock and the three new
//	  contexts with their maps.
func TestReplayAllocBudget(t *testing.T) {
	dir := t.TempDir()
	writeSessionLog(t, dir)
	const budget = 8.4
	got := testing.AllocsPerRun(5, func() { recoverStore(t, dir) }) / sessionRecords
	if got > budget {
		t.Errorf("replay: %.2f allocs per record, budget %v", got, budget)
	}
}
