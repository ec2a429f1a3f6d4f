package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/names"
)

// visibleDeadline bounds how long the edge may keep accepting a
// dependent credential after its parent's revocation was acknowledged;
// a session that exceeds it counts as failed.
const visibleDeadline = 2 * time.Second

// client is one relying service: a closed loop on one keep-alive HTTP
// connection, waiting for each verdict before sending the next request.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil when untraced
	ids  *atomic.Uint64
}

func newClient(base string, tr *tracer, ids *atomic.Uint64) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: callTimeout,
		},
		base: base,
		tr:   tr,
		ids:  ids,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request and decodes a 2xx answer into out. It
// returns the status and the HTTP round-trip latency (request written to
// response read).
func (c *client) post(path string, body []byte, out any) (int, int64, error) {
	opStart := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id uint64
	if c.tr != nil {
		id = c.ids.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ns := int64(time.Since(start))
	if err != nil {
		return resp.StatusCode, ns, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, ns, fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, ns, fmt.Errorf("%s: decode answer: %w", path, err)
		}
	}
	if c.tr != nil {
		c.tr.clientDone(path, id, ns, int64(time.Since(opStart)))
	}
	return resp.StatusCode, ns, nil
}

// recorder collects one client's samples and outcomes for one phase.
type recorder struct {
	validate []sample // scheduled /validate round trips
	activate []sample
	revoke   []sample
	visible  []sample // /revoke sent until the dependent is refused
	// round is the slice of the measured phase samples now land in.
	round int

	sessions    [slices]int // finished sessions per round
	attempted   int
	failed      int
	stalePolls  int
	revocations int // acknowledged revocations
	errs        []string

	refs *refLog // where handed-out records and revocations go
}

func newRecorder(refs *refLog) *recorder { return &recorder{refs: refs} }

// dropSamples releases the per-operation samples once their figures are
// taken, so the heap reading that follows holds the deployment only.
func (r *recorder) dropSamples() {
	r.validate, r.activate, r.revoke, r.visible = nil, nil, nil, nil
}

// note appends one operation that took ns to the current round.
func (r *recorder) note(dst *[]sample, ns int64) {
	*dst = append(*dst, sample{round: r.round, ns: ns})
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// session is one principal's pair of credentials and the pre-encoded
// /validate bodies that present them.
type session struct {
	principal     string
	login, files  cert.RMC
	validateLogin []byte
	validateFiles []byte
}

func activateBody(service, role, principal string, rmcs []cert.RMC) []byte {
	b, _ := json.Marshal(gateway.ActivateRequest{ //nolint:errchkjson // plain structs always encode
		Service: service,
		RemoteActivateRequest: core.RemoteActivateRequest{
			Principal: principal,
			Role:      names.MustRole(names.MustRoleName(service, role, 1), names.Atom(principal)),
			RMCs:      rmcs,
		},
	})
	return b
}

func validateBody(principal string, r cert.RMC) []byte {
	b, _ := json.Marshal(gateway.ValidateRequest{Principal: principal, RMC: &r}) //nolint:errchkjson // plain structs always encode
	return b
}

// activateSession activates login.user(P) and then files.reader(P),
// presenting the login RMC (the issuer validates it by callback).
func (c *client) activateSession(rec *recorder, principal string) (session, bool) {
	s := session{principal: principal}
	rec.attempted++
	_, ns, err := c.post("/activate", activateBody("login", "user", principal, nil), &s.login)
	if err != nil {
		rec.fail("activate login.user(%s): %v", principal, err)
		return s, false
	}
	rec.note(&rec.activate, ns)
	rec.refs.issued(s.login.Ref)

	rec.attempted++
	_, ns, err = c.post("/activate", activateBody("files", "reader", principal, []cert.RMC{s.login}), &s.files)
	if err != nil {
		rec.fail("activate files.reader(%s): %v", principal, err)
		return s, false
	}
	rec.note(&rec.activate, ns)
	rec.refs.issued(s.files.Ref)
	s.validateLogin = validateBody(principal, s.login)
	s.validateFiles = validateBody(principal, s.files)
	return s, true
}

// validate presents one credential and checks the verdict.
func (c *client) validate(rec *recorder, body []byte, want bool, what string) (int64, bool) {
	rec.attempted++
	var v gateway.ValidateResponse
	_, ns, err := c.post("/validate", body, &v)
	if err != nil {
		rec.fail("validate %s: %v", what, err)
		return ns, false
	}
	if v.Valid != want {
		rec.fail("validate %s: valid=%v, want %v (%s)", what, v.Valid, want, v.Reason)
		return ns, false
	}
	return ns, true
}

// churnSession runs one session's full life: activate both roles,
// validate the dependent credential n times, revoke the login record,
// check the login RMC is refused on the first read after the ack, and
// poll the dependent until the edge refuses it too.
func (c *client) churnSession(rec *recorder, principal string, n int) {
	s, ok := c.activateSession(rec, principal)
	if !ok {
		return
	}
	for i := 0; i < n; i++ {
		ns, ok := c.validate(rec, s.validateFiles, true, "files.reader("+principal+")")
		if !ok {
			return
		}
		rec.note(&rec.validate, ns)
	}

	var rs *revSpan
	if c.tr != nil {
		rs = c.tr.expectRevoke(s.login.Ref, s.files.Ref)
	}
	body, _ := json.Marshal(gateway.RevokeRequest{Service: "login", Serial: s.login.Ref.Serial, Reason: "logout"}) //nolint:errchkjson // plain struct
	rec.attempted++
	sent := time.Now()
	if rs != nil {
		c.tr.stamp(func() { rs.sent = int64(sent.Sub(c.tr.epoch)) })
	}
	var ack core.RemoteRevokeResponse
	_, ns, err := c.post("/revoke", body, &ack)
	if err != nil {
		rec.fail("revoke login %d: %v", s.login.Ref.Serial, err)
		return
	}
	if !ack.Revoked {
		rec.fail("revoke login %d: not acknowledged", s.login.Ref.Serial)
		return
	}
	rec.note(&rec.revoke, ns)
	rec.revocations++
	rec.refs.revoked(s.login.Ref, s.files.Ref)

	if _, ok := c.validate(rec, s.validateLogin, false, "revoked login.user("+principal+")"); !ok {
		return
	}
	deadline := sent.Add(visibleDeadline)
	for {
		rec.attempted++
		var v gateway.ValidateResponse
		if _, _, err := c.post("/validate", s.validateFiles, &v); err != nil {
			rec.fail("poll files.reader(%s): %v", principal, err)
			return
		}
		if !v.Valid {
			now := time.Now()
			rec.note(&rec.visible, int64(now.Sub(sent)))
			if rs != nil {
				c.tr.stamp(func() { rs.refused = int64(now.Sub(c.tr.epoch)) })
			}
			break
		}
		rec.stalePolls++
		if time.Now().After(deadline) {
			rec.fail("files.reader(%s) still valid %v after its login was revoked", principal, visibleDeadline)
			return
		}
	}
	rec.sessions[rec.round]++
}
