package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/durable"
)

// tiny shrinks a workload so one run takes about a second.
func tiny(t *testing.T, name string, trace bool) config {
	t.Helper()
	var wl workload
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	switch name {
	case "validate_hot":
		wl.sessions = 100
	case "validate_cold":
		wl.sessions, wl.cacheMax = 160, 10 // still 16x the bound
	}
	return config{
		wl: wl, seed: 7, seconds: 0.3, trace: trace, dir: t.TempDir(),
		clients: 2, setups: 1,
	}
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(tiny(t, wl.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted == 0 {
					t.Fatalf("result %+v, failures %v", rep.result, rep.envelope["failures"])
				}
				want := []string{"setup_s", "validate_mean_us", "heap_inuse_mb"}
				if trace {
					want = []string{"gateway.validate.self_us", "durable.append_group.p50_us",
						"event.cascade_us", "trace_overhead_pct", "unattributed_us"}
				}
				for _, m := range want {
					if _, ok := rep.result.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
			})
		}
	}
}

// staleEdge stands in for an edge whose verdict cache never hears of
// revocations: every /validate answers valid.
func staleEdge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/validate" {
			next.ServeHTTP(w, r)
			return
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the body is not needed
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"valid":true}`) //nolint:errcheck // test stand-in
	})
}

func TestCheckerCatchesStaleEdge(t *testing.T) {
	cfg := tiny(t, "session_churn", false)
	cfg.wrapEdge = staleEdge
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result.Correct || rep.result.Failed == 0 {
		t.Fatalf("a stale edge passed the checks: %+v", rep.result)
	}
	failures, _ := rep.envelope["failures"].([]string)
	if len(failures) == 0 || !strings.Contains(failures[0], "want false") {
		t.Fatalf("failures %v, want a refused-after-revoke violation", failures)
	}
}

func TestJournalCheckCatchesLostRecords(t *testing.T) {
	dir := t.TempDir()
	log, err := durable.Open(durable.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendGroup([]durable.Record{
		{Op: durable.OpCRIssue, Service: "login", Serial: 1, Subject: "login.user(a)", Holder: "a"},
		{Op: durable.OpCRIssue, Service: "files", Serial: 1, Subject: "files.reader(a)", Holder: "a"},
		{Op: durable.OpCRRevoke, Service: "login", Serial: 1},
	}, true); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	login, files := cert.CRR{Issuer: "login", Serial: 1}, cert.CRR{Issuer: "files", Serial: 1}
	refs := func(write func(*refLog)) string {
		path := filepath.Join(t.TempDir(), "refs")
		l, err := createRefLog(path)
		if err != nil {
			t.Fatal(err)
		}
		write(l)
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean := refs(func(l *refLog) { l.issued(login); l.issued(files) })
	if bad := checkJournal(dir, clean); len(bad) != 0 {
		t.Fatalf("clean journal reported %v", bad)
	}
	bad := checkJournal(dir, refs(func(l *refLog) {
		l.issued(cert.CRR{Issuer: "login", Serial: 2})
		l.revoked(login, files)
	}))
	if len(bad) != 2 {
		t.Fatalf("got %v, want the missing issue and the unrecorded dependent revocation", bad)
	}
}

func TestQuietRounds(t *testing.T) {
	rounds := func(steal ...float64) []round {
		out := make([]round, len(steal))
		for i, s := range steal {
			out[i].steal = s
		}
		return out
	}
	for _, tc := range []struct {
		rounds []round
		want   []bool
	}{
		// Quiet enough: every round at or under quietSteal counts.
		{rounds(0, 3, 1, -1), []bool{true, false, true, true}},
		// Too few quiet rounds: the half with the least steal counts.
		{rounds(9, 2, 0.5, 7, 4, 3), []bool{false, true, true, false, false, true}},
	} {
		got := quietRounds(tc.rounds)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("quietRounds(%v) = %v, want %v", tc.rounds, got, tc.want)
				break
			}
		}
	}
}
