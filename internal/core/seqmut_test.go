package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/durable"
	"repro/internal/names"
)

// TestSeqJournalGroups pins what the journal sees for each mutation
// kind: exactly one AppendGroup per sequencer batch, carrying the
// batch's records in apply order, with wait false only when every
// record is a credential-record issue.
func TestSeqJournalGroups(t *testing.T) {
	w := newWorld(t)
	j := &captureJournal{}
	withJournal := func(c *Config) { c.Journal = j }
	a := w.service("a", `
a.ra <- env ok.
auth appoint_badge(H) <- a.ra.
`, withJournal)
	b := w.service("b", `b.rb <- a.ra keep [1].`, withJournal)
	alwaysTrue(a, "ok")
	sess := w.session()
	pid := sess.PrincipalID()

	step := func(name string, do func(), want ...journalGroup) {
		t.Helper()
		mark := j.count()
		do()
		w.broker.Quiesce()
		if got := j.since(mark); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: journal groups\n got %+v\nwant %+v", name, got, want)
		}
	}
	group := func(wait bool, recs ...durable.Record) journalGroup {
		return journalGroup{recs: recs, wait: wait}
	}

	var rmcA, rmcB cert.RMC
	activate := func(svc *Service, r names.Role, out *cert.RMC) func() {
		return func() {
			rmc, err := svc.Activate(pid, r, sess.Credentials())
			if err != nil {
				t.Fatal(err)
			}
			sess.AddRMC(rmc)
			*out = rmc
		}
	}
	step("CR issue", activate(a, role("a", "ra"), &rmcA),
		group(false, durable.Record{Op: durable.OpCRIssue, Service: "a", Serial: 1, Subject: role("a", "ra").Key(), Holder: pid}))
	step("dependent CR issue", activate(b, role("b", "rb"), &rmcB),
		group(false, durable.Record{Op: durable.OpCRIssue, Service: "b", Serial: 1, Subject: role("b", "rb").Key(), Holder: pid}))

	mark := j.count()
	appt, err := a.Appoint(pid, AppointmentRequest{
		Kind: "badge", Holder: "h", Params: []names.Term{names.Atom("x")},
	}, sess.Credentials())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := j.since(mark), []journalGroup{group(true,
		durable.Record{Op: durable.OpApptIssue, Service: "a", Serial: appt.Serial, Appt: &appt})}; !reflect.DeepEqual(got, want) {
		t.Fatalf("appointment issue: journal groups\n got %+v\nwant %+v", got, want)
	}
	step("appointment revoke", func() { a.RevokeAppointment(appt.Serial, "expired badge") },
		group(true, durable.Record{Op: durable.OpApptRevoke, Service: "a", Serial: appt.Serial, Reason: "expired badge"}))

	secrets, retain := a.ExportKeys()
	step("key install", func() {
		if err := a.InstallKeys(); err != nil {
			t.Fatal(err)
		}
	}, group(true, durable.Record{Op: durable.OpKeys, Service: "a", Retain: retain, Secrets: secrets}))

	// The root revocation is durable before it publishes, so the
	// dependent's cascaded revocation is journaled after it.
	step("root revoke and cascade", func() { a.Revoke(rmcA.Ref.Serial, "logout") },
		group(true, durable.Record{Op: durable.OpCRRevoke, Service: "a", Serial: rmcA.Ref.Serial, Reason: "logout"}),
		group(true, durable.Record{Op: durable.OpCRRevoke, Service: "b", Serial: rmcB.Ref.Serial, Reason: "dependency revoked: " + rmcA.Ref.String()}))
	step("losing revoke", func() { a.Revoke(rmcA.Ref.Serial, "again") })

	// A batch mixing an issue with a revocation waits, and keeps apply
	// order. Driven through the apply hook directly: a public-API race
	// cannot force two ops into one batch.
	serial := a.records.(SerialIssuer).NextSerial()
	iss := newMutOp(mutCRIssue)
	iss.serial, iss.subject, iss.holder = serial, role("a", "ra").Key(), "p"
	iss.cr = &CredRecord{Serial: serial, Principal: "p", Role: role("a", "ra")}
	rev := newMutOp(mutCRRevoke)
	rev.serial, rev.reason = serial, "mixed"
	step("mixed batch", func() { a.applySeqBatch(seqShardOf(serial), []*mutOp{iss, rev}) },
		group(true,
			durable.Record{Op: durable.OpCRIssue, Service: "a", Serial: serial, Subject: role("a", "ra").Key(), Holder: "p"},
			durable.Record{Op: durable.OpCRRevoke, Service: "a", Serial: serial, Reason: "mixed"}))
}

// TestSeqConcurrentChurn hammers one service with parallel activate/
// deactivate pairs through the sequencer and checks nothing is lost:
// every issued serial must end up revoked-but-known.
func TestSeqConcurrentChurn(t *testing.T) {
	w := newWorld(t)
	svc := w.service("login", `login.user <- env ok.`)
	alwaysTrue(svc, "ok")

	const workers, per = 8, 50
	serials := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rmc, err := svc.Activate(fmt.Sprintf("w%d-%d", g, i), role("login", "user"), Presented{})
				if err != nil {
					t.Error(err)
					return
				}
				serials[g] = append(serials[g], rmc.Ref.Serial)
				if !svc.Revoke(rmc.Ref.Serial, "logout") {
					t.Errorf("deactivate %d failed", rmc.Ref.Serial)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for g := range serials {
		for _, serial := range serials[g] {
			valid, exists := svc.CRStatus(serial)
			if valid || !exists {
				t.Fatalf("serial %d: status (%v,%v), want revoked tombstone", serial, valid, exists)
			}
		}
	}
	st := svc.Stats()
	if st.Activations != workers*per || st.Revocations != workers*per {
		t.Errorf("stats = %+v, want %d/%d", st, workers*per, workers*per)
	}
}

// TestSeqSubmitAfterClose pins the shutdown rule: Close does not stop
// the sequencer, so a revocation racing shutdown still lands and is
// journaled, and once the journal itself is closed its error reaches
// the mutation's caller instead of hanging or vanishing.
func TestSeqSubmitAfterClose(t *testing.T) {
	dir := t.TempDir()
	dlog, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(t)
	svc := w.service("login", `login.user <- env ok.`, func(c *Config) { c.Journal = dlog })
	alwaysTrue(svc, "ok")
	rmc, err := svc.Activate("p", role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if !svc.Revoke(rmc.Ref.Serial, "logout") {
		t.Fatal("revoke after Close did not land")
	}
	if valid, exists := svc.CRStatus(rmc.Ref.Serial); valid || !exists {
		t.Fatalf("status = (%v,%v), want revoked", valid, exists)
	}
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	state, err := durable.ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cr := state.Services["login"].CRs[rmc.Ref.Serial]; cr == nil || !cr.Revoked {
		t.Fatalf("journal replay has %+v for the revoked serial, want revoked", cr)
	}

	done := make(chan error, 1)
	go func() { done <- svc.InstallKeys() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("InstallKeys against a closed journal returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("InstallKeys against a closed journal hung")
	}
}
