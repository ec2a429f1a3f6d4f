package seq

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// Every item submitted to one shard must be applied exactly once, in
// submission order per submitter, with no two Apply calls for the
// shard running concurrently.
func TestOrderedApplyPerShard(t *testing.T) {
	const (
		workers = 8
		perW    = 500
	)
	type item struct{ worker, n int }

	var mu sync.Mutex
	got := make(map[int][]int) // worker -> sequence of n, in apply order
	var inApply atomic.Int32

	s := New(Config[item]{
		Shards: 1,
		Apply: func(shard int, batch []item) {
			if inApply.Add(1) != 1 {
				t.Error("concurrent Apply on one shard")
			}
			mu.Lock()
			for _, it := range batch {
				got[it.worker] = append(got[it.worker], it.n)
			}
			mu.Unlock()
			inApply.Add(-1)
		},
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < perW; n++ {
				s.Submit(0, item{w, n})
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		seq := got[w]
		if len(seq) != perW {
			t.Fatalf("worker %d: applied %d items, want %d", w, len(seq), perW)
		}
		for n, v := range seq {
			if v != n {
				t.Fatalf("worker %d: out of order at %d: got %d", w, n, v)
			}
		}
	}
}

// Under contention batches should form: total Apply calls must be
// well under the item count.
func TestBatchingUnderContention(t *testing.T) {
	const items = 4000
	var calls, applied atomic.Int64
	s := New(Config[int]{
		Shards: 1,
		Apply: func(_ int, batch []int) {
			calls.Add(1)
			applied.Add(int64(len(batch)))
			time.Sleep(50 * time.Microsecond) // make the combiner slow
		},
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < items/8; n++ {
				s.Submit(0, n)
			}
		}()
	}
	wg.Wait()
	if applied.Load() != items {
		t.Fatalf("applied %d, want %d", applied.Load(), items)
	}
	if c := calls.Load(); c >= items {
		t.Fatalf("no batching: %d Apply calls for %d items", c, items)
	}
}

// A full mailbox must block Submit (backpressure), not drop or error.
func TestBackpressureBlocks(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var applied atomic.Int64
	s := New(Config[int]{
		Shards: 1,
		Apply: func(_ int, batch []int) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			applied.Add(int64(len(batch)))
		},
	})

	// First submit becomes the combiner and parks in Apply.
	done1 := make(chan struct{})
	go func() { s.Submit(0, -1); close(done1) }()
	<-entered

	// The next mailboxDepth submits fill the mailbox and return at once
	// (the combiner role is taken); one more must block in the send.
	for n := 0; n < mailboxDepth; n++ {
		s.Submit(0, n)
	}
	blocked := make(chan struct{})
	go func() { s.Submit(0, mailboxDepth); close(blocked) }()

	select {
	case <-blocked:
		t.Fatal("Submit returned while mailbox full and combiner parked")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	// Every item is applied once all submitters have returned: each
	// was drained by its own submitter or by the combiner.
	<-done1
	<-blocked
	if want := int64(mailboxDepth + 2); applied.Load() != want {
		t.Fatalf("applied %d, want %d", applied.Load(), want)
	}
}

// Different shards may apply concurrently; same shard never does.
func TestShardIndependence(t *testing.T) {
	const shards = 4
	var perShard [shards]atomic.Int32
	var maxConc atomic.Int32
	var conc atomic.Int32
	s := New(Config[int]{
		Shards: shards,
		Apply: func(shard int, batch []int) {
			if perShard[shard].Add(1) != 1 {
				t.Errorf("shard %d: concurrent Apply", shard)
			}
			c := conc.Add(1)
			for {
				m := maxConc.Load()
				if c <= m || maxConc.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			conc.Add(-1)
			perShard[shard].Add(-1)
		},
	})
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				s.Submit(sh, n)
			}
		}(sh)
	}
	wg.Wait()
	if maxConc.Load() < 2 {
		t.Logf("note: shards never overlapped (maxConc=%d); scheduling-dependent, not a failure", maxConc.Load())
	}
}

// Metrics are registered and populated when an obs registry is given.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config[int]{
		Shards: 2,
		Name:   "login",
		Obs:    reg,
		Apply:  func(int, []int) {},
	})
	for i := 0; i < 10; i++ {
		s.Submit(i, i)
	}
	for _, name := range []string{
		`seq_mailbox_depth{service="login"}`,
		`seq_apply_ns{service="login"}`,
		`seq_batch_size{service="login"}`,
	} {
		h := reg.Histogram(name, nil)
		if h.Count() == 0 {
			t.Fatalf("histogram %s has no observations", name)
		}
	}
}
