package event

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PeerQueue is a bounded, drop-oldest dispatch queue in front of a relay
// peer transport. oasisd's event relay used to spawn one goroutine per
// forwarded event (`go caller.Call(...)`): with a peer down and the
// resilient caller inside its retry/backoff, a heavy publisher
// accumulated unbounded goroutines and every failure vanished. A
// PeerQueue runs exactly one sender goroutine per peer, bounds the
// backlog to a fixed capacity by dropping the oldest events, and counts
// enqueues, sends, failures and drops so the loss is visible in /metrics.
//
// Dropping the oldest is safe only between events about the same
// credential, where the newer one is the fresher word. The queue holds
// events about many credentials, so a dropped event can be the only
// revocation of a different credential, and the peer never learns of
// it: the counter is the only trace. Replacing this push relay with the
// gap-marked pull Feed, which signals such a loss in band, is ROADMAP
// open item 1.
type PeerQueue struct {
	send     func(Event) error
	capacity int
	onDrop   func(n int) // nil unless set by OnDrop before traffic

	mu     sync.Mutex
	buf    []Event
	closed bool
	wake   chan struct{}
	wg     sync.WaitGroup

	enqueued atomic.Uint64
	sent     atomic.Uint64
	failed   atomic.Uint64
	dropped  atomic.Uint64
}

// PeerQueueStats is a snapshot of a queue's counters.
type PeerQueueStats struct {
	Enqueued uint64 // events accepted by Enqueue
	Sent     uint64 // events delivered by send
	Failed   uint64 // events whose send returned an error
	Dropped  uint64 // events evicted by drop-oldest backpressure
	Depth    int    // events currently buffered
}

// NewPeerQueue starts a queue whose single worker delivers events through
// send in order. capacity bounds the backlog (<=0 selects 256).
func NewPeerQueue(capacity int, send func(Event) error) *PeerQueue {
	if capacity <= 0 {
		capacity = 256
	}
	q := &PeerQueue{
		send:     send,
		capacity: capacity,
		wake:     make(chan struct{}, 1),
	}
	q.wg.Add(1)
	go q.run()
	return q
}

// OnDrop installs a callback invoked with the number of events evicted
// by each drop-oldest overflow. It runs under the queue's mutex — before
// the worker can dequeue anything enqueued after the drop — so a
// consumer that turns drops into in-band loss markers (the edge feed's
// gap protocol) is guaranteed the marker precedes every post-drop
// event. The callback must be fast and must not call back into the
// queue. Set it right after NewPeerQueue, before any Enqueue.
func (q *PeerQueue) OnDrop(fn func(n int)) { q.onDrop = fn }

// Instrument registers the queue's counters and depth gauge under the
// peer's name (relay_* series) in reg.
func (q *PeerQueue) Instrument(reg *obs.Registry, peer string) {
	if reg == nil {
		return
	}
	label := fmt.Sprintf("{peer=%q}", peer)
	reg.Func("relay_enqueued_total"+label, q.enqueued.Load)
	reg.Func("relay_sent_total"+label, q.sent.Load)
	reg.Func("relay_failed_total"+label, q.failed.Load)
	reg.Func("relay_dropped_total"+label, q.dropped.Load)
	reg.Func("relay_depth"+label, func() uint64 { return uint64(q.Stats().Depth) })
}

// Enqueue adds an event for delivery, evicting the oldest buffered events
// when the queue is full. It reports false (and discards the event) after
// Close.
func (q *PeerQueue) Enqueue(ev Event) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if drop := len(q.buf) + 1 - q.capacity; drop > 0 {
		q.buf = q.buf[drop:]
		q.dropped.Add(uint64(drop))
		if q.onDrop != nil {
			q.onDrop(drop)
		}
	}
	q.buf = append(q.buf, ev)
	q.mu.Unlock()
	q.enqueued.Add(1)
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

func (q *PeerQueue) run() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		if len(q.buf) == 0 {
			if q.closed {
				q.mu.Unlock()
				return
			}
			q.mu.Unlock()
			<-q.wake
			continue
		}
		ev := q.buf[0]
		q.buf = q.buf[1:]
		q.mu.Unlock()

		if err := q.send(ev); err != nil {
			q.failed.Add(1)
		} else {
			q.sent.Add(1)
		}
	}
}

// Stats returns a snapshot of the queue's counters.
func (q *PeerQueue) Stats() PeerQueueStats {
	q.mu.Lock()
	depth := len(q.buf)
	q.mu.Unlock()
	return PeerQueueStats{
		Enqueued: q.enqueued.Load(),
		Sent:     q.sent.Load(),
		Failed:   q.failed.Load(),
		Dropped:  q.dropped.Load(),
		Depth:    depth,
	}
}

// Close stops accepting events, lets the worker drain what is already
// buffered (each attempt still bounded by the transport's own deadline),
// and waits for it to exit.
func (q *PeerQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	q.wg.Wait()
}
