// Package faults provides deterministic, seedable fault injection for the
// PPC pipeline. Production code carries an optional *Injector; a nil
// injector is a no-op on every call, so the hooks cost one nil check on the
// hot path and nothing else. Chaos tests enable individual fault classes
// with per-class probabilities and drive the system through its public API,
// asserting that no fault ever escapes as a panic or a wrong answer.
//
// The injector is safe for concurrent use: the PPC runtime consults it from
// the optimizer, the executor, the online learner and the snapshot writer,
// while tests reconfigure it between workload phases.
//
// The injector also hands the durability layer its disk (Disk): the
// operating system's, unless a test installed a simulated one (SetDisk).
// The three WAL classes fire inside that simulated disk (disk/simdisk), so
// the log meets an injected fault on its own error path; on the operating
// system's disk they never fire.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/disk"
)

// Class identifies one injectable fault class.
type Class int

const (
	// OptimizerError makes Optimizer.Optimize return an error.
	OptimizerError Class = iota
	// OptimizerLatency stalls Optimizer.Optimize by the configured latency.
	OptimizerLatency
	// ExecutorError makes Executor.Run return an error.
	ExecutorError
	// LearnerMisprediction garbles the online predictor's plan choice,
	// simulating a corrupted or adversarial synopsis.
	LearnerMisprediction
	// SnapshotCorruption flips a byte in a persisted snapshot payload,
	// simulating storage corruption.
	SnapshotCorruption
	// WALShortWrite makes a write to the simulated disk land half its bytes
	// and return an error, simulating a full disk or interrupted write.
	WALShortWrite
	// WALFsyncError makes a simulated disk's file or directory fsync fail,
	// simulating a storage layer that accepts writes but cannot flush them.
	WALFsyncError
	// WALTornTail makes a write to the simulated disk land a prefix of its
	// bytes and error, and every later write-side operation of that disk
	// error with it, simulating power loss mid-append.
	WALTornTail
	// NetTornFrame makes a protocol writer send only a prefix of a frame and
	// then fail the connection, simulating a peer dying mid-write.
	NetTornFrame
	// NetCorruptFrame flips one byte of an encoded protocol frame after its
	// checksum was computed, simulating corruption on the wire. The receiver
	// must detect it via the frame CRC and drop the connection.
	NetCorruptFrame

	numClasses
)

// Classes lists every fault class (for table-driven chaos tests).
var Classes = []Class{
	OptimizerError, OptimizerLatency, ExecutorError,
	LearnerMisprediction, SnapshotCorruption,
	WALShortWrite, WALFsyncError, WALTornTail,
	NetTornFrame, NetCorruptFrame,
}

// String names the class.
func (c Class) String() string {
	switch c {
	case OptimizerError:
		return "optimizer-error"
	case OptimizerLatency:
		return "optimizer-latency"
	case ExecutorError:
		return "executor-error"
	case LearnerMisprediction:
		return "learner-misprediction"
	case SnapshotCorruption:
		return "snapshot-corruption"
	case WALShortWrite:
		return "wal-short-write"
	case WALFsyncError:
		return "wal-fsync-error"
	case WALTornTail:
		return "wal-torn-tail"
	case NetTornFrame:
		return "net-torn-frame"
	case NetCorruptFrame:
		return "net-corrupt-frame"
	}
	return fmt.Sprintf("faults.Class(%d)", int(c))
}

// ErrInjected is the sentinel wrapped by every injected error; callers
// distinguish injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// Injector rolls a deterministic per-class coin. The zero value and the nil
// pointer are both inert (no faults fire).
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	prob    [numClasses]float64
	fired   [numClasses]int64
	checked [numClasses]int64
	latency time.Duration
	disk    disk.FS
}

// New creates an injector with all classes disabled. The seed makes every
// coin sequence reproducible.
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Enable arms a fault class with firing probability p in [0,1]. Returns the
// injector for chaining.
func (i *Injector) Enable(c Class, p float64) *Injector {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	i.mu.Lock()
	i.prob[c] = p
	i.mu.Unlock()
	return i
}

// Disable disarms one fault class.
func (i *Injector) Disable(c Class) {
	i.mu.Lock()
	i.prob[c] = 0
	i.mu.Unlock()
}

// DisableAll disarms every class (the "faults clear" phase of chaos tests).
func (i *Injector) DisableAll() {
	i.mu.Lock()
	for c := range i.prob {
		i.prob[c] = 0
	}
	i.mu.Unlock()
}

// SetLatency configures the stall injected by latency-class faults.
func (i *Injector) SetLatency(d time.Duration) {
	i.mu.Lock()
	i.latency = d
	i.mu.Unlock()
}

// Should rolls the coin for class c. Nil-safe: a nil injector never fires.
func (i *Injector) Should(c Class) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.checked[c]++
	if i.prob[c] <= 0 || i.rng.Float64() >= i.prob[c] {
		return false
	}
	i.fired[c]++
	return true
}

// Fail returns a wrapped ErrInjected when class c fires, nil otherwise.
func (i *Injector) Fail(c Class) error {
	if !i.Should(c) {
		return nil
	}
	return fmt.Errorf("%s: %w", c, ErrInjected)
}

// Sleep stalls for the configured latency when class c fires.
func (i *Injector) Sleep(c Class) {
	if !i.Should(c) {
		return
	}
	i.mu.Lock()
	d := i.latency
	i.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// Intn returns a deterministic value in [0,n) from the injector's stream
// (used to pick which byte or plan id to garble). Nil-safe: returns 0.
func (i *Injector) Intn(n int) int {
	if i == nil || n <= 1 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n)
}

// CorruptOffset reports whether a snapshot of n bytes should be corrupted
// and at which byte offset. Nil-safe.
func (i *Injector) CorruptOffset(n int) (int, bool) {
	if n <= 0 || !i.Should(SnapshotCorruption) {
		return 0, false
	}
	return i.Intn(n), true
}

// SetDisk installs the disk Disk returns (a test's simulated disk). Returns
// the injector for chaining.
func (i *Injector) SetDisk(d disk.FS) *Injector {
	i.mu.Lock()
	i.disk = d
	i.mu.Unlock()
	return i
}

// Disk returns the disk the durability layer reads and writes: the one
// SetDisk installed, else the operating system's. Nil-safe.
func (i *Injector) Disk() disk.FS {
	if i == nil {
		return disk.OS{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.disk == nil {
		return disk.OS{}
	}
	return i.disk
}

// Fired returns how many times class c has fired.
func (i *Injector) Fired(c Class) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[c]
}

// Checked returns how many times class c's coin was consulted.
func (i *Injector) Checked(c Class) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.checked[c]
}
