package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/durable"
)

// captureJournal records every AppendGroup call the services make.
type captureJournal struct {
	mu     sync.Mutex
	groups []journalGroup
}

// journalGroup is one captured AppendGroup call.
type journalGroup struct {
	recs []durable.Record
	wait bool
}

func (c *captureJournal) AppendGroup(recs []durable.Record, wait bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = append(c.groups, journalGroup{recs: slices.Clone(recs), wait: wait})
	return nil
}

// since returns the groups captured after the first n.
func (c *captureJournal) since(n int) []journalGroup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.groups[n:])
}

// count returns the number of groups captured so far.
func (c *captureJournal) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.groups)
}

// revoked lists the serials of every journaled CR revocation, in order.
func (c *captureJournal) revoked() []uint64 {
	var out []uint64
	for _, g := range c.since(0) {
		for _, r := range g.recs {
			if r.Op == durable.OpCRRevoke {
				out = append(out, r.Serial)
			}
		}
	}
	return out
}

// A journal-restored credential record has no session state (crs entry),
// but logout must still be able to revoke it — otherwise a pre-crash
// certificate would stay valid forever after restart with no revocation
// path. Regression test for the restored-serials index behind EndSession.
func TestEndSessionRevokesRestoredRecords(t *testing.T) {
	w := newWorld(t)
	j := &captureJournal{}
	svc := w.service("login", `login.user(U) <- env ok(U).`, func(c *Config) { c.Journal = j })

	if err := svc.RestoreCR(7, "login.user(alice)", "alice", false, ""); err != nil {
		t.Fatal(err)
	}
	if err := svc.RestoreCR(9, "login.user(alice)", "alice", true, "logout"); err != nil {
		t.Fatal(err)
	}
	if valid, exists := svc.CRStatus(7); !valid || !exists {
		t.Fatalf("restored record 7: valid=%v exists=%v, want live", valid, exists)
	}

	if n := svc.EndSession("alice"); n != 1 {
		t.Fatalf("EndSession deactivated %d records, want 1 (the live restored one)", n)
	}
	if valid, exists := svc.CRStatus(7); valid || !exists {
		t.Fatalf("after logout, record 7: valid=%v exists=%v, want revoked", valid, exists)
	}
	if got := j.revoked(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("journal saw revocations %v, want [7]", got)
	}

	// Idempotent: the drained index must not resurrect the serials.
	if n := svc.EndSession("alice"); n != 0 {
		t.Fatalf("second EndSession deactivated %d records, want 0", n)
	}
}
