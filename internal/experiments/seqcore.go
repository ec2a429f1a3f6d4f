package experiments

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/policy"
)

// ---------------------------------------------------------------------------
// E20 — per-shard sequencer core: sustained mixed issue/revoke throughput
// against a real journal, group-journaled batches vs per-record
// journaling.
//
// Both variants run the same service and sequencer; they differ only in
// the journal. The sequencer variant hands each shard batch to the log
// as one multi-record frame group (skipping the group-commit window via
// the committer's urgent wake). The per-record variant wraps the log in
// perRecordJournal, which journals each record with the discipline of
// the pre-sequencer write path: every revocation pays its own
// group-commit window and fsync. Because a revocation's event is
// published before Deactivate returns in both variants, the per-op
// revoke latency distribution bounds the revocation publish latency —
// its p99 must not regress.
// ---------------------------------------------------------------------------

// perRecordJournal is E20's comparator: it journals a sequencer batch
// one record at a time, the way the service did before batches reached
// the journal whole. A credential-record issue is enqueued without
// waiting (Log.Append); every other record waits for its own
// group-commit window and fsync (Log.AppendWait).
type perRecordJournal struct{ log *durable.Log }

func (j perRecordJournal) AppendGroup(recs []durable.Record, _ bool) error {
	for _, r := range recs {
		if r.Op == durable.OpCRIssue {
			j.log.Append(r)
			continue
		}
		if err := j.log.AppendWait(r); err != nil {
			return err
		}
	}
	return nil
}

// SeqcoreConfig sizes the E20 run.
type SeqcoreConfig struct {
	// Procs are the GOMAXPROCS points to measure (workers == procs).
	Procs []int
	// Window is the wall-clock measurement window per (variant, procs)
	// point.
	Window time.Duration
}

// SeqcoreRow is one (variant, procs) throughput measurement.
type SeqcoreRow struct {
	Variant     string  `json:"variant"` // "per-record" or "sequencer"
	Procs       int     `json:"procs"`
	Ops         int64   `json:"ops"` // issue+revoke pairs completed
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	RevokeP50Ms float64 `json:"revoke_p50_ms"` // Deactivate call latency
	RevokeP99Ms float64 `json:"revoke_p99_ms"`
}

// SeqcoreResult is the full E20 outcome.
type SeqcoreResult struct {
	Rows []SeqcoreRow `json:"rows"`
	// SpeedupAtMax is sequencer / per-record pair throughput at the
	// highest measured proc count (the headline: floor 1.3x).
	SpeedupAtMax float64 `json:"speedup_at_max_procs"`
	// PerRecordP99Ms / SeqP99Ms are the revoke-latency p99s at the
	// highest proc count; the sequencer must not regress revocation
	// publish latency.
	PerRecordP99Ms float64 `json:"per_record_p99_ms"`
	SeqP99Ms       float64 `json:"seq_p99_ms"`
	// Violations are invariant breaches observed during the run (lost
	// mutations, count mismatches). Must be empty.
	Violations []string `json:"violations,omitempty"`
}

// seqcorePoint measures one variant at one proc count on a fresh world:
// a journaled single service, workers running activate+deactivate pairs.
func seqcorePoint(variant string, perRecord bool, procs int, window time.Duration) (SeqcoreRow, []string, error) {
	row := SeqcoreRow{Variant: variant, Procs: procs}
	dir, err := os.MkdirTemp("", "e20-seqcore-*")
	if err != nil {
		return row, nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck

	dlog, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return row, nil, err
	}
	defer dlog.Close() //nolint:errcheck
	broker := event.NewBroker()
	defer broker.Close()
	var journal core.Journal = dlog
	if perRecord {
		journal = perRecordJournal{dlog}
	}
	svc, err := core.NewService(core.Config{
		Name:    "login",
		Policy:  policy.MustParse(`login.user <- env ok.`),
		Broker:  broker,
		Journal: journal,
	})
	if err != nil {
		return row, nil, err
	}
	defer svc.Close()
	AlwaysTrue(svc, "ok")
	roleUser := Role("login", "user")

	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	var stop atomic.Bool
	var firstErr atomic.Value
	var wg sync.WaitGroup
	lats := make([][]time.Duration, procs)
	counts := make([]int64, procs)
	start := time.Now()
	timer := time.AfterFunc(window, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			principal := fmt.Sprintf("worker_%d", worker)
			for !stop.Load() {
				rmc, err := svc.Activate(principal, roleUser, core.Presented{})
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				t0 := time.Now()
				svc.Deactivate(rmc.Ref.Serial, "logout")
				lats[worker] = append(lats[worker], time.Since(t0))
				counts[worker]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return row, nil, err
	}

	var ops int64
	var all []time.Duration
	for w := 0; w < procs; w++ {
		ops += counts[w]
		all = append(all, lats[w]...)
	}
	if ops == 0 {
		return row, nil, fmt.Errorf("%s at procs=%d: no pairs completed in %v", variant, procs, window)
	}
	row.Ops = ops
	row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
	row.OpsPerSec = float64(ops) / elapsed.Seconds()
	slices.Sort(all)
	row.RevokeP50Ms = float64(obs.Quantile(all, 50).Nanoseconds()) / 1e6
	row.RevokeP99Ms = float64(obs.Quantile(all, 99).Nanoseconds()) / 1e6

	// Invariants: nothing lost — every pair accounted for in the service
	// stats, and the synced journal replays to exactly the revoked set.
	var violations []string
	st := svc.Stats()
	if st.Activations != uint64(ops) || st.Revocations != uint64(ops) {
		violations = append(violations,
			fmt.Sprintf("%s procs=%d: stats %d/%d activations/revocations, want %d pairs",
				variant, procs, st.Activations, st.Revocations, ops))
	}
	if err := dlog.Sync(); err != nil {
		return row, violations, err
	}
	state, err := durable.ReadState(dir)
	if err != nil {
		return row, violations, err
	}
	ss := state.Services["login"]
	if ss == nil {
		violations = append(violations, fmt.Sprintf("%s procs=%d: journal lost the service", variant, procs))
	} else {
		live, revoked := 0, 0
		for _, cr := range ss.CRs {
			if cr.Revoked {
				revoked++
			} else {
				live++
			}
		}
		if int64(revoked) != ops || live != 0 {
			violations = append(violations,
				fmt.Sprintf("%s procs=%d: journal replay has %d revoked / %d live CRs, want %d / 0",
					variant, procs, revoked, live, ops))
		}
	}
	return row, violations, nil
}

// RunSeqcore measures both variants at every proc point and computes the
// headline speedup and p99 comparison at the highest proc count.
func RunSeqcore(cfg SeqcoreConfig) (*SeqcoreResult, error) {
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1, 8}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1500 * time.Millisecond
	}
	res := &SeqcoreResult{}
	variants := []struct {
		name      string
		perRecord bool
	}{
		{"per-record", true},
		{"sequencer", false},
	}
	best := make(map[string]SeqcoreRow)
	maxProcs := cfg.Procs[len(cfg.Procs)-1]
	for _, v := range variants {
		for _, p := range cfg.Procs {
			row, violations, err := seqcorePoint(v.name, v.perRecord, p, cfg.Window)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			res.Violations = append(res.Violations, violations...)
			if p == maxProcs {
				best[v.name] = row
			}
		}
	}
	pr, s := best["per-record"], best["sequencer"]
	if pr.OpsPerSec > 0 {
		res.SpeedupAtMax = s.OpsPerSec / pr.OpsPerSec
	}
	res.PerRecordP99Ms, res.SeqP99Ms = pr.RevokeP99Ms, s.RevokeP99Ms
	return res, nil
}
