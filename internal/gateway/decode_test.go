package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/names"
)

// fullRMC sets every field of an RMC, with a parameter of each term
// kind and signature bytes spanning 0..255.
func fullRMC() cert.RMC {
	r := cert.RMC{
		Role: names.MustRole(names.MustRoleName("files", "reader", 4),
			names.Atom("alice"), names.Str("report 7"), names.Int(1<<40), names.Var("X")),
		Ref:   cert.CRR{Issuer: "files", Serial: 1<<64 - 1},
		KeyID: 1<<32 - 1,
	}
	for i := range r.Sig {
		r.Sig[i] = byte(i * 37)
	}
	r.Sig[0], r.Sig[1] = 0, 255
	return r
}

func canonicalBody(tb testing.TB, principal string, r cert.RMC) []byte {
	tb.Helper()
	b, err := json.Marshal(ValidateRequest{Principal: principal, RMC: &r})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestScanValidateTakesCanonicalBody pins the gain: the body encoding/json
// writes for a fully populated request must take the fast path.
func TestScanValidateTakesCanonicalBody(t *testing.T) {
	r := fullRMC()
	got, ok := scanValidate(canonicalBody(t, "alice-key", r))
	if !ok {
		t.Fatal("canonical /validate body refused by the fast path")
	}
	want := ValidateRequest{Principal: "alice-key", RMC: &r}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path decoded\n %+v\nwant\n %+v", got.RMC, want.RMC)
	}
}

// TestValidBodyMatchesEncoder: the pre-encoded positive verdict is the
// byte sequence json.Encoder wrote for it.
func TestValidBodyMatchesEncoder(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ValidateResponse{Valid: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(validBody, buf.Bytes()) {
		t.Fatalf("validBody = %q, json.Encoder writes %q", validBody, buf.Bytes())
	}
}

// FuzzValidateRequestDecode holds the fast path to json.Decoder: whatever
// it accepts, json.Decoder decodes without error into a DeepEqual value,
// and the /validate decode as a whole (fast path or fallback) returns
// exactly json.Decoder's value and error for every body.
func FuzzValidateRequestDecode(f *testing.F) {
	f.Add(canonicalBody(f, "alice-key", fullRMC()))
	f.Add(canonicalBody(f, "", cert.RMC{}))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	g := &Gateway{maxBody: DefaultMaxBodyBytes}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ValidateRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

		if fast, ok := scanValidate(body); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q; json.Decoder: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %+v; json.Decoder: %+v", body, fast, want)
			}
		}

		r := httptest.NewRequest(http.MethodPost, "/validate", bytes.NewReader(body))
		got, err := g.decodeValidate(httptest.NewRecorder(), r)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("decode %q: error %v; json.Decoder: %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %q: %+v; json.Decoder: %+v", body, got, want)
		}
	})
}

// hotEdge drives gw.Handler() in-process on an edge-cache hit: the cache
// is live and holds the verdict for one RMC, and the request, its body
// and the response writer are reused, so a run allocates only what the
// handler does.
type hotEdge struct {
	h    http.Handler
	body []byte
	rb   replayBody
	req  *http.Request
	w    discardWriter
}

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

type discardWriter struct {
	hdr  http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

func startHotEdge(tb testing.TB) *hotEdge {
	tb.Helper()
	b := startBackend(tb, `login.user <- env ok.`)
	var cache *core.EdgeCache
	e := startEdge(tb, b, func(c *Config) {
		cache = core.NewEdgeCache(c.Validator, 1024)
		cache.Attach()
		c.Cache = cache
	})
	he := &hotEdge{
		h:    e.gw.Handler(),
		body: canonicalBody(tb, "alice-key", activateAt(tb, b, "alice-key")),
		req:  httptest.NewRequest(http.MethodPost, "/validate", nil),
		w:    discardWriter{hdr: http.Header{}},
	}
	he.serve() // the miss that fills the cache
	if he.w.code != http.StatusOK {
		tb.Fatalf("filling validate: status %d", he.w.code)
	}
	he.serve()
	if st := cache.Stats(); st.Hits != 1 || he.w.code != http.StatusOK {
		tb.Fatalf("second validate: status %d, cache %+v; want a hit", he.w.code, st)
	}
	return he
}

func (he *hotEdge) serve() {
	he.rb.Reset(he.body)
	he.req.Body = &he.rb
	he.w.code = 0
	he.h.ServeHTTP(&he.w, he.req)
}

// TestValidateHitAllocs pins the handler's allocations on an edge-cache
// hit (24 before the scan-once decode, 9 after), with a little headroom
// so a slide back to the reflective decoder fails here.
func TestValidateHitAllocs(t *testing.T) {
	he := startHotEdge(t)
	const limit = 12
	if n := testing.AllocsPerRun(200, he.serve); n > limit {
		t.Errorf("edge-hit /validate allocates %.0f times per request, want <= %d", n, limit)
	}
}

func BenchmarkGatewayValidateHit(b *testing.B) {
	he := startHotEdge(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		he.serve()
	}
	if he.w.code != http.StatusOK {
		b.Fatalf("status %d", he.w.code)
	}
}
