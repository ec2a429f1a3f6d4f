// Package seq provides the per-shard sequencer at the heart of the
// unified async core: every mutation for a shard flows through one
// ordered apply loop, so journal order, broker publish order and
// replication ship order are the same stream by construction.
//
// The apply loop is a *role*, not a dedicated goroutine. Each shard
// has a bounded mailbox (a channel) and a combiner mutex. A submitter
// enqueues its item and then tries to take the combiner lock:
//
//   - If it wins, it becomes the shard's apply loop: it drains the
//     mailbox into a batch, calls Apply once for the whole batch, and
//     repeats until the mailbox is empty. After releasing the lock it
//     rechecks the mailbox and re-runs if anything arrived in the gap.
//   - If it loses, some other goroutine currently holds the role. That
//     holder's post-unlock recheck (or a later submitter's TryLock)
//     is obligated to drain the item, so the loser just returns and
//     waits on its per-item completion signal.
//
// This flat-combining shape keeps the uncontended path inline (no
// goroutine handoff — roughly a channel send plus a TryLock), batches
// automatically under contention (the longer Apply takes, the more
// items the next drain picks up), and owns no goroutines. A sequencer
// therefore has no shutdown: every item is drained either by its own
// submitter or by whichever combiner holds the role, so one that is
// simply dropped strands nothing and leaks nothing.
//
// Backpressure: the mailbox is a channel bounded at mailboxDepth (256)
// items and Submit blocks on a full shard, so a slow journal or broker
// pushes back through the sequencer to the RPC layer instead of growing
// a queue or dropping work downstream.
//
// Constraint: Apply (and anything it invokes synchronously, such as
// broker taps) must not call Submit on the same sequencer — the
// combiner holds the shard role while applying, and a blocking send
// into its own full mailbox would deadlock.
package seq

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// mailboxDepth bounds each shard's mailbox.
const mailboxDepth = 256

// Config configures a Sequencer.
type Config[T any] struct {
	// Shards is the number of independent ordered streams. Mutations
	// submitted to different shards may be applied concurrently;
	// mutations on one shard are applied in submission order.
	Shards int
	// Apply is called with a batch of items for one shard, in
	// submission order, with the shard's apply role held: no two
	// Apply calls for the same shard ever run concurrently.
	Apply func(shard int, batch []T)
	// Name labels the metrics (typically the service name).
	Name string
	// Obs optionally receives seq_mailbox_depth, seq_apply_ns and
	// seq_batch_size histograms.
	Obs *obs.Registry
}

type shardState[T any] struct {
	mu   sync.Mutex // the combiner token: held by the shard's current apply loop
	mbox chan T
	buf  []T // drain scratch; only touched with mu held
}

// Sequencer fans mutations into per-shard ordered apply loops.
type Sequencer[T any] struct {
	shards []shardState[T]
	apply  func(shard int, batch []T)

	depthH *obs.Histogram // mailbox depth observed at enqueue
	applyH *obs.Histogram // ns per Apply call
	sizeH  *obs.Histogram // items per Apply call
}

var (
	depthBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	applyBuckets = []int64{
		1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000,
		500000, 1000000, 2500000, 5000000, 10000000, 50000000,
	}
	sizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// New builds a sequencer. Apply must be non-nil; Shards must be >= 1.
func New[T any](cfg Config[T]) *Sequencer[T] {
	if cfg.Apply == nil {
		panic("seq: Config.Apply is nil")
	}
	if cfg.Shards < 1 {
		panic("seq: Config.Shards < 1")
	}
	s := &Sequencer[T]{
		shards: make([]shardState[T], cfg.Shards),
		apply:  cfg.Apply,
	}
	for i := range s.shards {
		s.shards[i].mbox = make(chan T, mailboxDepth)
	}
	if cfg.Obs != nil {
		label := ""
		if cfg.Name != "" {
			label = fmt.Sprintf("{service=%q}", cfg.Name)
		}
		s.depthH = cfg.Obs.Histogram("seq_mailbox_depth"+label, depthBuckets)
		s.applyH = cfg.Obs.Histogram("seq_apply_ns"+label, applyBuckets)
		s.sizeH = cfg.Obs.Histogram("seq_batch_size"+label, sizeBuckets)
	}
	return s
}

// Submit enqueues item on shard's ordered stream and guarantees it
// will be applied (by this goroutine or the shard's current combiner)
// before the item's completion is signalled by Apply. It blocks while
// the shard's mailbox is full.
func (s *Sequencer[T]) Submit(shard int, item T) {
	sh := &s.shards[shard%len(s.shards)]

	s.depthH.Observe(int64(len(sh.mbox)))
	sh.mbox <- item // bounded: blocks when full (backpressure)

	// Combine: win the shard's apply role or establish that someone
	// else holds it and is obligated to drain our item.
	for sh.mu.TryLock() {
		s.drainLocked(shard%len(s.shards), sh)
		sh.mu.Unlock()
		// Recheck after unlock: an item enqueued between our last
		// drain and the unlock may belong to a submitter whose
		// TryLock failed against *us*. If the mailbox is non-empty
		// we must re-acquire (or observe a new holder).
		if len(sh.mbox) == 0 {
			return
		}
	}
}

// drainLocked runs the shard's apply loop until the mailbox is empty.
// Caller holds sh.mu.
func (s *Sequencer[T]) drainLocked(shard int, sh *shardState[T]) {
	for {
		batch := sh.buf[:0]
		for {
			select {
			case item := <-sh.mbox:
				batch = append(batch, item)
			default:
				goto gathered
			}
		}
	gathered:
		if len(batch) == 0 {
			return
		}
		start := time.Now()
		s.apply(shard, batch)
		s.applyH.ObserveSince(start)
		s.sizeH.Observe(int64(len(batch)))
		// Recycle the scratch slice; drop item references so pooled
		// ops don't linger past their completion signal.
		var zero T
		for i := range batch {
			batch[i] = zero
		}
		sh.buf = batch[:0]
	}
}
