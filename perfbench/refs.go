package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/cert"
	"repro/internal/durable"
)

// refLog writes the credential records a deployment handed out, and the
// revocations it acknowledged, to a file beside its journal. The journal
// check reads them back after teardown; on disk they stay out of the heap
// the run reports, which would otherwise grow with every operation done.
type refLog struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

func createRefLog(path string) (*refLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &refLog{f: f, w: bufio.NewWriter(f)}, nil
}

// issued records a credential record the edge handed out.
func (l *refLog) issued(r cert.CRR) { l.write("i %s %d\n", r.Issuer, r.Serial) }

// revoked records an acknowledged revocation of login and the dependent
// files record it must collapse.
func (l *refLog) revoked(login, files cert.CRR) {
	l.write("r %s %d %s %d\n", login.Issuer, login.Serial, files.Issuer, files.Serial)
}

func (l *refLog) write(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		_, l.err = fmt.Fprintf(l.w, format, args...)
	}
}

// close flushes the file and reports the first error writing it met.
func (l *refLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); l.err == nil {
		l.err = err
	}
	if err := l.f.Close(); l.err == nil {
		l.err = err
	}
	return l.err
}

// checkJournal reopens the journal in dir: every credential record the
// reference file lists as handed out must be present, and every
// acknowledged revocation, with the dependent it collapsed, must be
// recorded revoked.
func checkJournal(dir, refs string) []string {
	st, err := durable.ReadState(dir)
	if err != nil {
		return []string{fmt.Sprintf("read journal: %v", err)}
	}
	f, err := os.Open(refs)
	if err != nil {
		return []string{fmt.Sprintf("read credential references: %v", err)}
	}
	defer f.Close()
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	lookup := func(r cert.CRR) *durable.CRState {
		if ss := st.Services[r.Issuer]; ss != nil {
			return ss.CRs[r.Serial]
		}
		return nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var login, files cert.CRR
		switch line := sc.Text(); {
		case len(line) > 0 && line[0] == 'i':
			if _, err := fmt.Sscanf(line, "i %s %d", &login.Issuer, &login.Serial); err != nil {
				return append(bad, fmt.Sprintf("credential references: %q: %v", line, err))
			}
			if lookup(login) == nil {
				report("journal lacks issued credential %s", login)
			}
		case len(line) > 0 && line[0] == 'r':
			if _, err := fmt.Sscanf(line, "r %s %d %s %d", &login.Issuer, &login.Serial, &files.Issuer, &files.Serial); err != nil {
				return append(bad, fmt.Sprintf("credential references: %q: %v", line, err))
			}
			if cr := lookup(login); cr == nil || !cr.Revoked {
				report("journal does not record acknowledged revocation of %s", login)
			}
			if cr := lookup(files); cr == nil || !cr.Revoked {
				report("journal does not record dependent revocation of %s", files)
			}
		default:
			return append(bad, fmt.Sprintf("credential references: unknown line %q", line))
		}
	}
	if err := sc.Err(); err != nil {
		bad = append(bad, fmt.Sprintf("read credential references: %v", err))
	}
	sort.Strings(bad)
	return bad
}
