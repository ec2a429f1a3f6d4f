package cert

import (
	"math"

	"repro/internal/names"
)

// JSON fast path: a scan-once reader for the canonical JSON form of an
// RMC, the body a relying party posts on every HTTP validation. It
// reads the shape encoding/json writes for an RMC and nothing else, so
// it can promise exactness: whatever it accepts, json.Decoder decodes
// without error into a DeepEqual value. Anything it cannot match that
// way it refuses, and the caller runs the reflective decoder instead —
// the same fast-shape/reflective-rest split as the journal's record
// encoder.
//
// A JSONScanner refuses:
//   - an unknown, differently-cased or duplicate key (encoding/json
//     matches keys case-insensitively and lets a repeat overwrite);
//   - a string holding an escape, a control byte or a non-ASCII byte
//     (its bytes are then not its value);
//   - null, true, false, a sign, a fraction, an exponent, a leading zero
//     or a number out of its field's range;
//   - a sig array without exactly len(sign.Signature) elements;
//   - any value of the wrong JSON type.
//
// Decoded strings are copies, so the input buffer may be reused once a
// scan returns.

// JSONScanner is a cursor over one JSON document in the subset above.
// Refusal is sticky: after the first refusal every read returns a zero
// value and End reports false. Envelopes around an RMC (the gateway's
// /validate body) drive it with Object and Str and hand the certificate
// to RMC.
type JSONScanner struct {
	b   []byte
	i   int // read position; an index, not a reslice, so advancing writes no pointer
	bad bool
}

// NewJSONScanner starts a scan of b.
func NewJSONScanner(b []byte) JSONScanner { return JSONScanner{b: b} }

// End reports whether the scan accepted its whole input: nothing was
// refused and only whitespace follows the document.
func (s *JSONScanner) End() bool {
	s.skipSpace()
	return !s.bad && s.i == len(s.b)
}

func (s *JSONScanner) refuse() { s.bad, s.i = true, len(s.b) }

func (s *JSONScanner) skipSpace() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// take consumes c if it is the next non-space byte.
func (s *JSONScanner) take(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// need consumes c or refuses.
func (s *JSONScanner) need(c byte) {
	if !s.take(c) {
		s.refuse()
	}
}

// rawStr reads a string whose bytes are its value, without copying.
func (s *JSONScanner) rawStr() []byte {
	s.need('"')
	for i := s.i; i < len(s.b); i++ {
		c := s.b[i]
		if c == '"' {
			v := s.b[s.i:i]
			s.i = i + 1
			return v
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	s.refuse()
	return nil
}

// Str reads a string value.
func (s *JSONScanner) Str() string { return string(s.rawStr()) }

// Object reads an object whose keys are drawn from keys (at most 64),
// each at most once. For each member it calls field with the key's
// index; field must read the member's value.
func (s *JSONScanner) Object(keys []string, field func(i int)) {
	s.need('{')
	if s.take('}') {
		return
	}
	var seen uint64
	for !s.bad {
		k := s.rawStr()
		i := 0
		for i < len(keys) && string(k) != keys[i] {
			i++
		}
		if i == len(keys) || seen&(1<<i) != 0 {
			s.refuse()
			return
		}
		seen |= 1 << i
		s.need(':')
		field(i)
		if !s.take(',') {
			s.need('}')
			return
		}
	}
}

// array reads an array, calling elem once per element.
func (s *JSONScanner) array(elem func()) {
	s.need('[')
	if s.take(']') {
		return
	}
	for !s.bad {
		elem()
		if !s.take(',') {
			s.need(']')
			return
		}
	}
}

// uint reads a non-negative integer literal no greater than max.
func (s *JSONScanner) uint(max uint64) uint64 {
	s.skipSpace()
	var v uint64
	start, i := s.i, s.i
	for ; i < len(s.b) && s.b[i] >= '0' && s.b[i] <= '9'; i++ {
		d := uint64(s.b[i] - '0')
		if v > (max-d)/10 {
			s.refuse()
			return 0
		}
		v = v*10 + d
	}
	if i == start || (i > start+1 && s.b[start] == '0') ||
		(i < len(s.b) && (s.b[i] == '.' || s.b[i] == 'e' || s.b[i] == 'E')) {
		s.refuse()
		return 0
	}
	s.i = i
	return v
}

// The keys encoding/json writes for each object in an RMC, in the order
// of the struct fields.
var (
	rmcKeys      = []string{"role", "ref", "keyId", "sig"}
	roleKeys     = []string{"name", "params"}
	roleNameKeys = []string{"service", "name", "arity"}
	termKeys     = []string{"kind", "sym", "num"}
	crrKeys      = []string{"issuer", "serial"}
)

// RMC reads an RMC object.
func (s *JSONScanner) RMC() RMC {
	var r RMC
	s.Object(rmcKeys, func(i int) {
		switch i {
		case 0:
			r.Role = s.role()
		case 1:
			s.Object(crrKeys, func(i int) {
				if i == 0 {
					r.Ref.Issuer = s.Str()
				} else {
					r.Ref.Serial = s.uint(math.MaxUint64)
				}
			})
		case 2:
			r.KeyID = uint32(s.uint(math.MaxUint32))
		case 3:
			n := 0
			s.array(func() {
				if n == len(r.Sig) {
					s.refuse()
					return
				}
				r.Sig[n] = byte(s.uint(math.MaxUint8))
				n++
			})
			if n != len(r.Sig) {
				s.refuse()
			}
		}
	})
	return r
}

func (s *JSONScanner) role() names.Role {
	var role names.Role
	s.Object(roleKeys, func(i int) {
		if i == 1 {
			// encoding/json decodes [] to an empty, non-nil slice.
			role.Params = []names.Term{}
			s.array(func() { role.Params = append(role.Params, s.term()) })
			return
		}
		s.Object(roleNameKeys, func(i int) {
			switch i {
			case 0:
				role.Name.Service = s.Str()
			case 1:
				role.Name.Name = s.Str()
			case 2:
				role.Name.Arity = int(s.uint(math.MaxInt))
			}
		})
	})
	return role
}

func (s *JSONScanner) term() names.Term {
	var t names.Term
	s.Object(termKeys, func(i int) {
		switch i {
		case 0:
			t.Kind = names.TermKind(s.uint(math.MaxInt))
		case 1:
			t.Sym = s.Str()
		case 2:
			t.Num = int64(s.uint(math.MaxInt64))
		}
	})
	return t
}
