package obs

import (
	"testing"

	"poseidon/internal/nvm"
)

// TestOpValuesPinned pins every Op's numeric value and name. Black-box span
// records persist uint8(Op) in the heap image, so renumbering an Op — or
// deleting a retired one from the middle of the enum — would make an older
// image's timeline decode its spans under the wrong names.
func TestOpValuesPinned(t *testing.T) {
	want := []struct {
		op   Op
		val  uint8
		name string
	}{
		{OpAlloc, 0, "alloc"},
		{OpFree, 1, "free"},
		{OpTxAlloc, 2, "txalloc"},
		{OpTxFree, 3, "txfree"},
		{OpDefrag, 4, "defrag"},
		{OpDrain, 5, "drain"},
		{OpRefill, 6, "refill"},
		{OpRecovery, 7, "recovery"},
		{OpLoad, 8, "load"},
		{OpScrub, 9, "scrub"},
		{OpRepair, 10, "repair"},
		{OpCombine, 11, "combine"},
		{OpLockWait, 12, "lock_wait"},
		{OpLockHold, 13, "lock_hold"},
	}
	if int(NumOps) != len(want) {
		t.Fatalf("NumOps = %d, want %d: pin the new Op here", NumOps, len(want))
	}
	for _, w := range want {
		if uint8(w.op) != w.val || w.op.String() != w.name {
			t.Errorf("Op %q = %d, want %q = %d", w.op, uint8(w.op), w.name, w.val)
		}
	}
	if got := attrClassOf[OpCombine]; got != nvm.NumClasses {
		t.Errorf("retired OpCombine explains class %v, want none", got)
	}
}
