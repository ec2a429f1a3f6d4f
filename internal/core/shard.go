package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// crShards is the shard count of the credential-record table. 16 keeps the
// per-shard maps small under millions of sessions while bounding the cost
// of full-table sweeps (heartbeats, Close) to a handful of lock
// acquisitions.
const crShards = 16

var principalSeed = maphash.MakeSeed()

// crTable is the sharded credential-record store of one service: a
// serial-keyed record table split crShards ways so concurrent activations
// and deactivations rarely contend, plus a principal-keyed index (sharded
// by principal hash) so EndSession and ActiveRoles run in
// O(roles-of-principal) instead of scanning every CR the service has ever
// issued.
//
// Lock discipline: a serial shard lock and a principal shard lock are
// never held together — applyBatch touches them in sequence, and
// every reader tolerates the brief window in which a record is present in
// one but not the other (validity always comes from the RecordStore, not
// from table presence).
type crTable struct {
	serials    [crShards]serialShard
	principals [crShards]principalShard
	// count tracks the live record population for the resident-state
	// gauge (core_resident_crs); maintained by applyBatch so reading
	// it never sweeps the shards.
	count atomic.Int64
}

type serialShard struct {
	mu  sync.RWMutex
	crs map[uint64]*CredRecord
}

// principalShard indexes serials by principal as a small slice rather
// than a nested map: a principal holds a handful of roles, so linear
// scans beat per-principal map headers and bucket arrays by a wide
// margin at million-principal populations (one slice header per
// principal versus a 48-byte map header plus bucket allocations).
type principalShard struct {
	mu      sync.Mutex
	serials map[string][]uint64
}

func (t *crTable) serialShard(serial uint64) *serialShard {
	return &t.serials[serial%crShards]
}

func (t *crTable) principalShard(principal string) *principalShard {
	return &t.principals[maphash.String(principalSeed, principal)%crShards]
}

// indexPrincipal adds a record to the principal index. Called after the
// serial-shard mutation, never with a serial shard lock held.
func (t *crTable) indexPrincipal(cr *CredRecord) {
	ps := t.principalShard(cr.Principal)
	ps.mu.Lock()
	if ps.serials == nil {
		ps.serials = make(map[string][]uint64)
	}
	ps.serials[cr.Principal] = append(ps.serials[cr.Principal], cr.Serial)
	ps.mu.Unlock()
	t.count.Add(1)
}

// unindexPrincipal removes a record from the principal index.
func (t *crTable) unindexPrincipal(cr *CredRecord, serial uint64) {
	ps := t.principalShard(cr.Principal)
	ps.mu.Lock()
	if list, ok := ps.serials[cr.Principal]; ok {
		for i, s := range list {
			if s == serial {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(ps.serials, cr.Principal)
		} else {
			ps.serials[cr.Principal] = list
		}
	}
	ps.mu.Unlock()
	t.count.Add(-1)
}

// crMut is one credential-table mutation inside a sequencer batch:
// either an insert (insert != nil) or a removal by serial.
type crMut struct {
	insert *CredRecord
	remove uint64
	// removed receives the evicted record for removals (nil when the
	// serial had no table entry, e.g. journal-restored records).
	removed *CredRecord
}

// applyBatch applies a sequencer batch's table mutations. Every serial
// in the batch maps to the same serial shard (the sequencer shards by
// serial % crShards, matching serialShard), so the whole batch commits
// under one serial-shard lock acquisition, in batch order. The
// principal index is updated per record afterwards, preserving the
// lock discipline (serial and principal shard locks never held
// together).
func (t *crTable) applyBatch(shard int, muts []crMut) {
	if len(muts) == 0 {
		return
	}
	ss := &t.serials[shard%crShards]
	ss.mu.Lock()
	if ss.crs == nil {
		ss.crs = make(map[uint64]*CredRecord)
	}
	for i := range muts {
		m := &muts[i]
		if m.insert != nil {
			ss.crs[m.insert.Serial] = m.insert
		} else {
			m.removed = ss.crs[m.remove]
			delete(ss.crs, m.remove)
		}
	}
	ss.mu.Unlock()

	for i := range muts {
		m := &muts[i]
		switch {
		case m.insert != nil:
			t.indexPrincipal(m.insert)
		case m.removed != nil:
			t.unindexPrincipal(m.removed, m.remove)
		}
	}
}

// get returns the live record for serial, or nil after deactivation.
func (t *crTable) get(serial uint64) *CredRecord {
	ss := t.serialShard(serial)
	ss.mu.RLock()
	cr := ss.crs[serial]
	ss.mu.RUnlock()
	return cr
}

// residents returns the live record population.
func (t *crTable) residents() int64 { return t.count.Load() }

// serialsOf lists the serials currently indexed for a principal.
func (t *crTable) serialsOf(principal string) []uint64 {
	ps := t.principalShard(principal)
	ps.mu.Lock()
	list := ps.serials[principal]
	out := make([]uint64, len(list))
	copy(out, list)
	ps.mu.Unlock()
	return out
}

// allSerials snapshots every live serial (heartbeat sweep).
func (t *crTable) allSerials() []uint64 {
	var out []uint64
	for i := range t.serials {
		ss := &t.serials[i]
		ss.mu.RLock()
		for serial := range ss.crs {
			out = append(out, serial)
		}
		ss.mu.RUnlock()
	}
	return out
}

// allRecords snapshots every live record (Close sweep).
func (t *crTable) allRecords() []*CredRecord {
	var out []*CredRecord
	for i := range t.serials {
		ss := &t.serials[i]
		ss.mu.RLock()
		for _, cr := range ss.crs {
			out = append(out, cr)
		}
		ss.mu.RUnlock()
	}
	return out
}
