package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a journal entry.
type EventKind uint8

// Journal event kinds. These are the allocator's rare, structurally
// interesting moments — the things an operator greps a log for, kept
// in-process and drainable instead.
const (
	EventQuarantine     EventKind = iota // a sub-heap was taken out of service
	EventTransientRetry                  // device I/O survived ErrTransient via retry
	EventScrubFinding                    // load-time audit saw a problem
	EventCrash                           // a simulated power failure was injected
	EventRecovery                        // a heap load completed recovery
	EventViolation                       // a torture sweep found an inconsistency
	EventFreeRejected                    // Thread.Free rejected an invalid or double free
	EventRepair                          // a quarantined sub-heap was repaired (or repair failed)
	EventHealthChange                    // the heap's health state machine transitioned
	EventProfileReset                    // persistent profile side-table was torn; profile reset
	EventStall                           // watchdog saw an in-flight op exceed its deadline
	EventBlackboxTorn                    // black-box ring tail was torn; timeline truncated
	EventFenced                          // a heap's attach generation was revoked; heap detached
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	"quarantine", "transient_retry", "scrub_finding", "crash", "recovery", "violation",
	"free_rejected", "repair", "health_change", "profile_reset", "stall", "blackbox_torn",
	"fenced",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "invalid"
}

// Event is one structured journal entry.
type Event struct {
	Seq     uint64    // monotonically increasing emission number
	At      time.Time // emission time
	Kind    EventKind `json:"-"`
	KindStr string    `json:"Kind"` // filled at snapshot/drain time
	Subheap int       // affected sub-heap, -1 when not sub-heap scoped
	Detail  string
}

// Journal is a fixed-size ring buffer of rare structured events. Emission
// takes a mutex — events are orders of magnitude rarer than allocations, so
// the lock never contends with the hot path. When the ring is full the
// oldest entry is overwritten and counted.
//
// The ring is sequence-aligned: event seq lives at buf[seq % cap], always,
// so retained events are exactly [next-retained, next).
type Journal struct {
	mu          sync.Mutex
	buf         []Event
	next        uint64 // total emitted
	retained    int    // events currently held, ≤ len(buf)
	overwritten uint64
	byKind      [NumEventKinds]atomic.Uint64
}

const defaultJournalSize = 256

// newJournal sizes the ring; capacity < 1 gets the default.
func newJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = defaultJournalSize
	}
	return &Journal{buf: make([]Event, capacity)}
}

// Emit appends an event, stamping its sequence number and time, and returns
// the stamped event (so a mirror can forward the exact entry).
func (j *Journal) Emit(kind EventKind, subheap int, detail string) Event {
	if int(kind) < len(j.byKind) {
		j.byKind[kind].Add(1)
	}
	j.mu.Lock()
	e := Event{
		Seq: j.next, At: time.Now(), Kind: kind, Subheap: subheap, Detail: detail,
	}
	j.buf[j.next%uint64(len(j.buf))] = e
	if j.retained == len(j.buf) {
		j.overwritten++
	} else {
		j.retained++
	}
	j.next++
	j.mu.Unlock()
	return e
}

// snapshotLocked copies the retained events oldest-first. Caller holds mu.
func (j *Journal) snapshotLocked() []Event {
	out := make([]Event, 0, j.retained)
	for seq := j.next - uint64(j.retained); seq < j.next; seq++ {
		e := j.buf[seq%uint64(len(j.buf))]
		e.KindStr = e.Kind.String()
		out = append(out, e)
	}
	return out
}

// Events returns the retained events, oldest first, without clearing them.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// Drain returns the retained events and empties the ring. Per-kind totals
// and the emission counter are preserved.
func (j *Journal) Drain() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.snapshotLocked()
	j.retained = 0
	return out
}

// Emitted returns the lifetime emission count.
func (j *Journal) Emitted() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Overwritten returns how many events the ring displaced before they were
// read.
func (j *Journal) Overwritten() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.overwritten
}

// KindCount returns the lifetime emission count for one kind.
func (j *Journal) KindCount(k EventKind) uint64 {
	if int(k) >= len(j.byKind) {
		return 0
	}
	return j.byKind[k].Load()
}
