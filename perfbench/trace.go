package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sign"
)

// reqIDHeader carries the benchmark's request id from the load client to
// the gateway wrapper, so client latency and handler time of one request
// can be paired.
const reqIDHeader = "X-Bench-Req"

// tracer records spans and counts at the public interfaces between the
// layers of the stack. Every hook is a wrapper the benchmark installs
// around a constructor's input or output; no code of the program under
// test changes. Recording happens only while on is set (the measured
// phase).
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   map[string][]int64  // span durations (ns) by layer.op
	counts  map[string]float64  // counts and weighted sums by name
	handler map[uint64]int64    // request id -> gateway handler ns
	topics  map[string]*revSpan // revocation topic -> its cascade
	serials map[uint64]*revSpan // login serial -> its cascade
	revs    []*revSpan

	// journalRecords counts records passed through the timing journal
	// over the whole run, for the fidelity check against the log's own
	// durable_append_records_total.
	journalRecords atomic.Uint64
	// legacyRecords counts records that reached the per-record Journal
	// hooks instead of AppendGroup; non-zero means the wrapper lost the
	// GroupJournal fast path.
	legacyRecords atomic.Uint64
}

// revSpan stamps one revocation's path from the client's /revoke to the
// edge's first refusal of the dependent credential, in ns since epoch.
type revSpan struct {
	loginTopic, filesTopic string
	sent, dispatch         int64 // client sends /revoke; issuer dispatches it
	loginPub, filesPub     int64 // broker tap sees login, then files revoked
	feedSent               int64 // feed send of the files revocation returned
	refused                int64 // client sees the dependent refused
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		spans:   make(map[string][]int64),
		counts:  make(map[string]float64),
		handler: make(map[uint64]int64),
		topics:  make(map[string]*revSpan),
		serials: make(map[uint64]*revSpan),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// span records one duration under key while recording is on.
func (t *tracer) span(key string, ns int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans[key] = append(t.spans[key], ns)
	t.mu.Unlock()
}

// add accumulates v under key while recording is on.
func (t *tracer) add(key string, v float64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.counts[key] += v
	t.mu.Unlock()
}

// opClass folds wire method names into the operation they serve.
func opClass(method string) string {
	switch method {
	case "validate_rmc", "validate_appt", "validate_batch":
		return "validate"
	}
	return method
}

// verdicts counts the validations one wire call carries: a
// validate_batch body is a tag byte then the uvarint item count.
func verdicts(method string, body []byte) int64 {
	if method != "validate_batch" {
		return 1
	}
	if len(body) > 1 {
		if n, k := binary.Uvarint(body[1:]); k > 0 {
			return int64(n)
		}
	}
	return 1
}

// callerFunc adapts a function to rpc.Caller.
type callerFunc func(service, method string, body []byte) ([]byte, error)

func (f callerFunc) Call(service, method string, body []byte) ([]byte, error) {
	return f(service, method, body)
}

// edgeCaller times the edge's wire calls: it sits between the
// ResilientCaller and the pooled Directory, so each span is one OW2
// round trip (retries show as separate spans).
func (t *tracer) edgeCaller(next rpc.Caller) rpc.Caller {
	return callerFunc(func(service, method string, body []byte) ([]byte, error) {
		start := time.Now()
		resp, err := next.Call(service, method, body)
		ns := int64(time.Since(start))
		op := opClass(method)
		t.span("rpc."+op, ns)
		t.add("rpc.calls", 1)
		t.add("rpc.ns", float64(ns))
		t.add("rpc.bytes", float64(len(body)+len(resp)))
		if op == "validate" {
			n := verdicts(method, body)
			t.add("rpc.validate.blocking_ns", float64(ns*n))
		}
		return resp, err
	})
}

// serverHandler times the issuer's dispatch of one OW2 request: wire
// decode, the core operation and the reply encode.
func (t *tracer) serverHandler(service string, next rpc.Handler) rpc.Handler {
	return func(method string, body []byte) ([]byte, error) {
		start := time.Now()
		if method == "revoke" && service == "login" && t.on.Load() {
			var req core.RemoteRevokeRequest
			if json.Unmarshal(body, &req) == nil {
				t.stamp(func() {
					if rs := t.serials[req.Serial]; rs != nil && rs.dispatch == 0 {
						rs.dispatch = t.now()
					}
				})
			}
		}
		resp, err := next(method, body)
		ns := int64(time.Since(start))
		op := opClass(method)
		t.span("core."+op, ns)
		t.add("core.server_calls", 1)
		t.add("core.ns", float64(ns))
		if op == "validate" {
			t.add("core.validate.blocking_ns", float64(ns*verdicts(method, body)))
		}
		return resp, err
	}
}

// callbackCaller times the issuer's in-process callback validations
// (files asking login about a presented login RMC).
func (t *tracer) callbackCaller(next rpc.Caller) rpc.Caller {
	return callerFunc(func(service, method string, body []byte) ([]byte, error) {
		start := time.Now()
		resp, err := next.Call(service, method, body)
		t.span("core.callback", int64(time.Since(start)))
		t.add("core.callbacks", 1)
		return resp, err
	})
}

// timedJournal times the services' journal traffic. It must offer
// exactly the interfaces *durable.Log offers: the core picks its write
// path by type assertion, and a wrapper missing GroupJournal would
// silently move every service onto the legacy per-record hooks.
type timedJournal struct {
	log *durable.Log
	t   *tracer
}

var (
	_ core.Journal      = (*durable.Log)(nil)
	_ core.GroupJournal = (*durable.Log)(nil)
	_ core.KeyJournal   = (*durable.Log)(nil)
	_ core.Journal      = (*timedJournal)(nil)
	_ core.GroupJournal = (*timedJournal)(nil)
	_ core.KeyJournal   = (*timedJournal)(nil)
)

func (t *tracer) journal(log *durable.Log) *timedJournal { return &timedJournal{log: log, t: t} }

func (j *timedJournal) AppendGroup(recs []durable.Record, wait bool) error {
	start := time.Now()
	err := j.log.AppendGroup(recs, wait)
	j.t.span("durable.append_group", int64(time.Since(start)))
	j.t.journalRecords.Add(uint64(len(recs)))
	j.t.add("durable.groups", 1)
	j.t.add("durable.records", float64(len(recs)))
	if wait {
		j.t.add("durable.waits", 1)
	}
	return err
}

func (j *timedJournal) KeysInstalled(service string, retain int, secrets []sign.Secret) error {
	j.legacy()
	return j.log.KeysInstalled(service, retain, secrets)
}

func (j *timedJournal) CRIssued(service string, serial uint64, subject, holder string) {
	j.legacy()
	j.log.CRIssued(service, serial, subject, holder)
}

func (j *timedJournal) CRRevoked(service string, serial uint64, reason string) {
	j.legacy()
	j.log.CRRevoked(service, serial, reason)
}

func (j *timedJournal) ApptIssued(service string, a cert.AppointmentCertificate) {
	j.legacy()
	j.log.ApptIssued(service, a)
}

func (j *timedJournal) ApptRevoked(service string, serial uint64, reason string) {
	j.legacy()
	j.log.ApptRevoked(service, serial, reason)
}

func (j *timedJournal) legacy() {
	j.t.journalRecords.Add(1)
	j.t.legacyRecords.Add(1)
}

// stamp runs f under the tracer lock.
func (t *tracer) stamp(f func()) {
	t.mu.Lock()
	f()
	t.mu.Unlock()
}

// tap is a broker tap: it stamps when each traced revocation is
// published (login directly, files by the membership cascade).
func (t *tracer) tap(ev event.Event) {
	if ev.Kind != event.KindRevoked || !t.on.Load() {
		return
	}
	now := t.now()
	t.stamp(func() {
		rs := t.topics[ev.Topic]
		switch {
		case rs == nil:
		case ev.Topic == rs.loginTopic && rs.loginPub == 0:
			rs.loginPub = now
		case ev.Topic == rs.filesTopic && rs.filesPub == 0:
			rs.filesPub = now
		}
	})
}

// feedSend wraps the send func the feed writes one subscriber's events
// to: it stamps when the dependent revocation has left for the edge.
func (t *tracer) feedSend(send func([]byte) error) func([]byte) error {
	return func(b []byte) error {
		err := send(b)
		if !t.on.Load() {
			return err
		}
		ev, derr := event.UnmarshalEvent(b)
		if derr != nil {
			return err
		}
		now := t.now()
		t.stamp(func() {
			if rs := t.topics[ev.Topic]; rs != nil && ev.Topic == rs.filesTopic && rs.feedSent == 0 {
				rs.feedSent = now
			}
		})
		return err
	}
}

// expectRevoke registers a session's credentials before its login RMC is
// revoked, so the hooks above can stamp its cascade.
func (t *tracer) expectRevoke(login, files cert.CRR) *revSpan {
	if !t.on.Load() {
		return nil
	}
	rs := &revSpan{loginTopic: core.TopicCR(login), filesTopic: core.TopicCR(files)}
	t.stamp(func() {
		t.topics[rs.loginTopic] = rs
		t.topics[rs.filesTopic] = rs
		t.serials[login.Serial] = rs
		t.revs = append(t.revs, rs)
	})
	return rs
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// gatewayHandler times the gateway's HTTP handler per endpoint.
func (t *tracer) gatewayHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		ns := int64(time.Since(start))
		t.span("gateway."+strings.TrimPrefix(r.URL.Path, "/"), ns)
		if sw.code/100 != 2 {
			t.add("gateway.non2xx", 1)
		}
		if r.URL.Path != "/validate" || !t.on.Load() {
			return
		}
		if id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64); err == nil {
			t.stamp(func() { t.handler[id] = ns })
		}
	})
}

// clientDone pairs a finished /validate request with its handler time:
// ns is the HTTP round trip, op the whole client operation (request
// built to verdict decoded).
func (t *tracer) clientDone(path string, id uint64, ns, op int64) {
	if path != "/validate" || !t.on.Load() {
		return
	}
	var h int64
	var ok bool
	t.stamp(func() {
		h, ok = t.handler[id]
		delete(t.handler, id)
	})
	if ok {
		t.span("client.validate", op)
		t.span("http.client_overhead", ns-h)
		t.span("gateway.validate.paired", h)
	}
}

// promSnapshot is one reading of a registry's text exposition: every
// series line by its full name.
type promSnapshot map[string]float64

func readRegistry(reg *obs.Registry) promSnapshot {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		logf("read registry: %v", err)
	}
	snap := make(promSnapshot)
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap
}

// delta is the growth of one series between two snapshots.
func delta(a, b promSnapshot, name string) float64 { return b[name] - a[name] }

// histDelta merges the growth of every histogram series named base (any
// label set) between two snapshots into one distribution.
type histDelta struct {
	bounds []float64 // upper bounds, ascending; last is +Inf
	counts []float64 // per-bucket growth
	sum    float64
	count  float64
}

func mergeHist(a, b promSnapshot, base string) histDelta {
	byLE := make(map[float64]float64)
	var h histDelta
	for name, v := range b {
		switch {
		case strings.HasPrefix(name, base+"_bucket{"):
			i := strings.Index(name, `le="`)
			if i < 0 {
				continue
			}
			le := strings.TrimSuffix(name[i+4:], `"}`)
			bound, err := strconv.ParseFloat(strings.Replace(le, "+Inf", "Inf", 1), 64)
			if err != nil {
				continue
			}
			byLE[bound] += v - a[name]
		case strings.HasPrefix(name, base+"_sum{") || name == base+"_sum":
			h.sum += v - a[name]
		case strings.HasPrefix(name, base+"_count{") || name == base+"_count":
			h.count += v - a[name]
		}
	}
	for bound := range byLE {
		h.bounds = append(h.bounds, bound)
	}
	sort.Float64s(h.bounds)
	prev := 0.0
	for _, bound := range h.bounds {
		cum := byLE[bound]
		h.counts = append(h.counts, cum-prev)
		prev = cum
	}
	return h
}

// quantile interpolates linearly inside the winning bucket, as the
// registry's own Quantile does.
func (h histDelta) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := q * h.count
	seen, lower := 0.0, 0.0
	for i, n := range h.counts {
		upper := h.bounds[i]
		if upper > 1e300 && i > 0 {
			upper = h.bounds[i-1]
		}
		if n > 0 && seen+n >= rank {
			return lower + (rank-seen)/n*(upper-lower)
		}
		seen += n
		lower = upper
	}
	return lower
}

func (h histDelta) mean() float64 { return ratio(h.sum, h.count) }
