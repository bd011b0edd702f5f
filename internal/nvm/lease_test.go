package nvm

import "testing"

func TestLeaseLifecycle(t *testing.T) {
	d, err := NewDevice(Options{Capacity: ChunkSize, CrashTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	a := d.Acquire()
	a.OnRevoke(func() { hooks++ })
	if a.Gen() != 1 || a.State() != 0 {
		t.Fatalf("first lease: gen %d state %d", a.Gen(), a.State())
	}

	// A later attach revokes the earlier one and runs its hook once.
	b := d.Acquire()
	if !a.Revoked() || b.Revoked() || b.Gen() != 2 || hooks != 1 {
		t.Fatalf("after second Acquire: a revoked %v, b revoked %v, b gen %d, hooks %d",
			a.Revoked(), b.Revoked(), b.Gen(), hooks)
	}
	if a.Close() {
		t.Fatal("Close of a revoked lease reported the transition")
	}

	// Close is one transition; a crash still revokes the closed lease.
	if !b.Close() || b.Close() {
		t.Fatal("Close must succeed exactly once")
	}
	if _, err := d.Crash(CrashPolicy{Mode: EvictNone}); err != nil {
		t.Fatal(err)
	}
	if b.State() != LeaseClosed|LeaseRevoked {
		t.Fatalf("after crash: state %b", b.State())
	}
	if c := d.Acquire(); c.Gen() != 3 {
		t.Fatalf("generation after crash: %d, want 3", c.Gen())
	}

	// A hook registered after the revoke runs at once.
	late := 0
	b.OnRevoke(func() { late++ })
	if late != 1 {
		t.Fatalf("late hook ran %d times, want 1", late)
	}

	// An unregistered lease is never revoked by the device.
	var raw Lease
	d.Acquire()
	if _, err := d.Crash(CrashPolicy{Mode: EvictNone}); err != nil {
		t.Fatal(err)
	}
	if raw.Revoked() || raw.Gen() != 0 {
		t.Fatalf("unregistered lease: revoked %v gen %d", raw.Revoked(), raw.Gen())
	}
	if hooks != 1 {
		t.Fatalf("first lease's hook ran %d times, want 1", hooks)
	}
}
