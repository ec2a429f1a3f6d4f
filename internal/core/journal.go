package core

import (
	"fmt"

	"repro/internal/cert"
	"repro/internal/durable"
	"repro/internal/names"
	"repro/internal/sign"
)

// Journal receives the engine's durable-state mutations. Every
// credential-record and appointment issue/revoke and every signing-key
// install reaches it as part of one AppendGroup call per sequencer
// batch, so a journal implementation (internal/durable) can replay them
// after a crash. recs is the batch's records in apply order, already
// applied in memory; the slice is reused after the call returns. wait
// is false only when every record is a credential-record issue (the
// failure direction of a lost issue is fail-closed denial); otherwise
// AppendGroup must not return before the whole group is durable,
// because the batch's revocations publish as soon as it returns.
type Journal interface {
	AppendGroup(recs []durable.Record, wait bool) error
}

// GroupJournal is Journal under its earlier name, from when Journal
// also carried per-record hooks and AppendGroup was an optional
// extension. The benchmark harness (perfbench, a separate module)
// still names it in compile-time assertions.
type GroupJournal = Journal

// KeyJournal is the per-record key-install hook that
// *durable.Log.KeysInstalled satisfies. The service journals key
// installs through AppendGroup (see Service.InstallKeys) and never
// calls it; it stays declared because the benchmark harness asserts
// its journal wrapper against it.
type KeyJournal interface {
	KeysInstalled(service string, retain int, secrets []sign.Secret) error
}

// RecordRestorer is the optional RecordStore extension used during crash
// recovery: restoring a record re-creates it under its original serial
// and advances the allocator past it. The in-memory store implements it;
// a shared replicated CIV store does not need to (its records survive the
// daemon by replication, not by journal).
type RecordRestorer interface {
	RestoreRecord(serial uint64, st RecordStatus) error
}

// ExportKeys returns the service's retained signing secrets (oldest
// first) and the retention window, for journaling. Whoever holds the
// export holds the ability to forge this service's certificates; it goes
// to the journal and nowhere else.
func (s *Service) ExportKeys() ([]sign.Secret, int) { return s.ring.Export() }

// RestoreCR re-creates a credential record from the journal during
// recovery, before the service starts answering validation callbacks.
// Restored records carry validation continuity only: pre-crash RMCs keep
// answering valid (or revoked) by callback, but no membership monitoring
// is re-established — sessions are deliberately ephemeral (Sect. 4: an
// RMC is session-scoped, and the session did not survive the crash).
// Live restored records are indexed by holder so EndSession (logout) and
// Deactivate can still revoke them.
func (s *Service) RestoreCR(serial uint64, subject, holder string, revoked bool, reason string) error {
	rr, ok := s.records.(RecordRestorer)
	if !ok {
		return fmt.Errorf("service %s: record store %T does not support restore", s.name, s.records)
	}
	if err := rr.RestoreRecord(serial, RecordStatus{
		Exists:  true,
		Revoked: revoked,
		Subject: subject,
		Holder:  holder,
		Reason:  reason,
	}); err != nil {
		return err
	}
	if !revoked {
		s.restoredMu.Lock()
		if s.restoredCRs == nil {
			s.restoredCRs = make(map[string][]uint64)
		}
		s.restoredCRs[holder] = append(s.restoredCRs[holder], serial)
		s.restoredMu.Unlock()
	}
	return nil
}

// RestoreAppointment re-installs an issued appointment from the journal
// during recovery: the certificate validates by callback again (or stays
// revoked), and the serial allocator advances past it so new appointments
// never collide with restored ones.
func (s *Service) RestoreAppointment(a cert.AppointmentCertificate, revoked bool) {
	s.apptMu.Lock()
	defer s.apptMu.Unlock()
	s.appts[a.Serial] = &apptRecord{serial: a.Serial, appt: a, revoked: revoked}
	if a.Serial > s.nextApptSerial {
		s.nextApptSerial = a.Serial
	}
}

// RestoreRecord implements RecordRestorer for the in-memory store.
func (m *memRecords) RestoreRecord(serial uint64, st RecordStatus) error {
	if serial == 0 {
		return fmt.Errorf("restore record: serial 0")
	}
	rec := memRecord{
		subject: names.InternString(st.Subject),
		holder:  names.InternString(st.Holder),
		reason:  names.InternString(st.Reason),
	}
	if st.Revoked {
		rec.flags |= recRevoked
	}
	sh := m.shard(serial)
	sh.mu.Lock()
	sh.records[serial] = rec
	sh.mu.Unlock()
	// Advance the allocator so future issues never reuse a restored
	// serial.
	for {
		cur := m.next.Load()
		if cur >= serial || m.next.CompareAndSwap(cur, serial) {
			return nil
		}
	}
}
