// Package cert defines the certificate formats of OASIS: role membership
// certificates (RMCs, Fig. 4 of the paper) and appointment certificates
// (Sects. 1-2). Both are signed with a secret held by the issuing service
// and bound to a principal identifier that is an input to the signature but
// is not recorded in the certificate, so a stolen certificate cannot be
// used by an adversary who cannot produce the principal id.
//
// An RMC carries a credential record reference (CRR) that locates the
// issuer and the credential record (CR) representing the certificate's
// current validity, enabling callback validation and event-channel
// invalidation (Sect. 4).
package cert

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/names"
	"repro/internal/sign"
)

// Errors returned by certificate construction and verification.
var (
	// ErrNotGround is returned when a certificate is requested for a role
	// with unbound parameter variables.
	ErrNotGround = errors.New("certificate role must be ground")
	// ErrExpired is returned when an appointment certificate is presented
	// after its expiry.
	ErrExpired = errors.New("appointment certificate expired")
)

// CRR is a credential record reference: it locates the issuing service and
// the credential record representing the validity of an RMC (Fig. 4). The
// Serial is unique per issuing service.
type CRR struct {
	Issuer string `json:"issuer"`
	Serial uint64 `json:"serial"`
}

// String renders issuer#serial in a single allocation — it is computed
// per presented certificate on the validation hot path (cache key and
// monitoring key).
func (c CRR) String() string {
	var tmp [20]byte
	var b strings.Builder
	b.Grow(len(c.Issuer) + 21)
	b.WriteString(c.Issuer)
	b.WriteByte('#')
	b.Write(strconv.AppendUint(tmp[:0], c.Serial, 10))
	return b.String()
}

// RMC is a role membership certificate: proof that a principal has
// activated Role at the issuing service, within a session. The signature
// covers the role name, parameters, CRR and key id, keyed on the holder's
// (session-specific) principal id.
type RMC struct {
	Role  names.Role     `json:"role"`
	Ref   CRR            `json:"ref"`
	KeyID uint32         `json:"keyId"`
	Sig   sign.Signature `json:"sig"`
}

// pfScratch backs one protected-fields construction: every field's bytes
// live in one pooled arena and the fields slice holds sub-slices of it,
// so signing or verifying a certificate allocates nothing in steady
// state (verification runs per item on the callback-validation hot
// path). Field boundaries are recorded as offsets during the build and
// materialised afterwards, because arena growth would invalidate
// sub-slices taken early.
type pfScratch struct {
	fields [][]byte
	offs   []int
	buf    []byte
}

var pfPool = sync.Pool{New: func() any { return &pfScratch{} }}

func (s *pfScratch) reset() {
	s.fields = s.fields[:0]
	s.offs = append(s.offs[:0], 0)
	s.buf = s.buf[:0]
}

// mark ends the current field at the arena's write position.
func (s *pfScratch) mark() { s.offs = append(s.offs, len(s.buf)) }

// done slices the arena into the recorded fields.
func (s *pfScratch) done() [][]byte {
	for i := 1; i < len(s.offs); i++ {
		s.fields = append(s.fields, s.buf[s.offs[i-1]:s.offs[i]])
	}
	return s.fields
}

// appendProtected serialises the fields covered by an RMC signature into
// the scratch arena. Any change to these bytes invalidates the signature
// (protection from tampering). The first field is the role name rendered
// exactly as RoleName.String (service.name/arity).
func (r RMC) appendProtected(s *pfScratch) [][]byte {
	s.reset()
	s.buf = append(s.buf, r.Role.Name.Service...)
	s.buf = append(s.buf, '.')
	s.buf = append(s.buf, r.Role.Name.Name...)
	s.buf = append(s.buf, '/')
	s.buf = strconv.AppendInt(s.buf, int64(r.Role.Name.Arity), 10)
	s.mark()
	for _, p := range r.Role.Params {
		s.buf = appendTerm(s.buf, p)
		s.mark()
	}
	s.buf = append(s.buf, r.Ref.Issuer...)
	s.mark()
	s.buf = binary.BigEndian.AppendUint64(s.buf, r.Ref.Serial)
	s.buf = binary.BigEndian.AppendUint32(s.buf, r.KeyID)
	s.mark()
	return s.done()
}

// IssueRMC creates a signed RMC for a ground role, bound to principalID,
// signed with the issuer's current key.
func IssueRMC(ring *sign.KeyRing, principalID string, role names.Role, ref CRR) (RMC, error) {
	if !role.IsGround() {
		return RMC{}, fmt.Errorf("%w: %s", ErrNotGround, role)
	}
	r := RMC{Role: role, Ref: ref}
	s := pfPool.Get().(*pfScratch)
	defer pfPool.Put(s)
	// The key id is itself a protected field, so fix it before signing;
	// if a rotation races between reading the id and signing, the ring
	// reports the id it actually used and we retry under that key.
	r.KeyID = ring.CurrentKeyID()
	for {
		sig, used := ring.Sign(principalID, r.appendProtected(s)...)
		if used == r.KeyID {
			r.Sig = sig
			return r, nil
		}
		r.KeyID = used
	}
}

// Verify checks the RMC's signature for the presenting principal against
// the issuer's key ring. It detects tampering, forgery, and theft (wrong
// principal id).
func (r RMC) Verify(ring *sign.KeyRing, principalID string) error {
	s := pfPool.Get().(*pfScratch)
	err := ring.Verify(r.KeyID, r.Sig, principalID, r.appendProtected(s)...)
	pfPool.Put(s)
	return err
}

// AppointmentCertificate is a long-lived credential whose lifetime is
// independent of any session (Sect. 2): academic or professional
// qualification, employment, organisation membership, or a transient
// stand-in authorisation. It is bound to a persistent principal id (e.g. a
// long-lived public key) rather than a session id.
type AppointmentCertificate struct {
	// Issuer is the service that issued the appointment.
	Issuer string `json:"issuer"`
	// Serial is unique per issuer and identifies the revocable record.
	Serial uint64 `json:"serial"`
	// Kind names the appointment, e.g. "employed_as_doctor".
	Kind string `json:"kind"`
	// Params carries appointment parameters, e.g. the hospital id.
	Params []names.Term `json:"params,omitempty"`
	// Holder is the persistent principal id of the appointee. Unlike the
	// RMC principal binding this is recorded in the certificate, because
	// appointments outlive sessions and services must be able to route a
	// validation callback; it is also covered by the signature.
	Holder string `json:"holder"`
	// AppointedBy records the appointer principal for audit; the
	// appointer need not hold the privileges conferred (Sect. 2).
	AppointedBy string `json:"appointedBy"`
	// IssuedAt and ExpiresAt bound the certificate's life. A zero
	// ExpiresAt means no expiry (revocation only).
	IssuedAt  time.Time `json:"issuedAt"`
	ExpiresAt time.Time `json:"expiresAt,omitempty"`
	// KeyID and Sig protect all fields above.
	KeyID uint32         `json:"keyId"`
	Sig   sign.Signature `json:"sig"`
}

// appendProtected serialises the fields covered by an appointment
// signature into the scratch arena (same framing as before pooling:
// issuer, serial/issued-at/key-id block, expiry block, kind, appointer,
// then each parameter).
func (a AppointmentCertificate) appendProtected(s *pfScratch) [][]byte {
	s.reset()
	s.buf = append(s.buf, a.Issuer...)
	s.mark()
	s.buf = binary.BigEndian.AppendUint64(s.buf, a.Serial)
	s.buf = binary.BigEndian.AppendUint64(s.buf, uint64(a.IssuedAt.UnixNano()))
	s.buf = binary.BigEndian.AppendUint32(s.buf, a.KeyID)
	s.mark()
	exp := uint64(0)
	if !a.ExpiresAt.IsZero() {
		exp = uint64(a.ExpiresAt.UnixNano())
	}
	s.buf = binary.BigEndian.AppendUint64(s.buf, exp)
	s.mark()
	s.buf = append(s.buf, a.Kind...)
	s.mark()
	s.buf = append(s.buf, a.AppointedBy...)
	s.mark()
	for _, p := range a.Params {
		s.buf = appendTerm(s.buf, p)
		s.mark()
	}
	return s.done()
}

// IssueAppointment signs an appointment certificate with the issuer's
// current key. All Params must be ground.
func IssueAppointment(ring *sign.KeyRing, a AppointmentCertificate) (AppointmentCertificate, error) {
	for _, p := range a.Params {
		if !p.IsGround() {
			return AppointmentCertificate{}, fmt.Errorf("%w: parameter %s", ErrNotGround, p)
		}
	}
	a.KeyID = ring.CurrentKeyID()
	s := pfPool.Get().(*pfScratch)
	defer pfPool.Put(s)
	for {
		sig, used := ring.Sign(a.Holder, a.appendProtected(s)...)
		if used == a.KeyID {
			a.Sig = sig
			return a, nil
		}
		a.KeyID = used
	}
}

// Verify checks the appointment signature and expiry at the given instant.
// The holder binding is checked implicitly: the signature is keyed on
// a.Holder, so a certificate whose Holder field was rewritten fails.
func (a AppointmentCertificate) Verify(ring *sign.KeyRing, now time.Time) error {
	if !a.ExpiresAt.IsZero() && now.After(a.ExpiresAt) {
		return fmt.Errorf("%w: at %s", ErrExpired, a.ExpiresAt.Format(time.RFC3339))
	}
	s := pfPool.Get().(*pfScratch)
	err := ring.Verify(a.KeyID, a.Sig, a.Holder, a.appendProtected(s)...)
	pfPool.Put(s)
	return err
}

// Key returns a canonical identity for the appointment record at its
// issuer.
func (a AppointmentCertificate) Key() string {
	return a.Issuer + "#appt#" + strconv.FormatUint(a.Serial, 10)
}

// appendTerm gives a term an unambiguous byte encoding for signing.
func appendTerm(dst []byte, t names.Term) []byte {
	switch t.Kind {
	case names.KindAtom:
		dst = append(dst, 'a')
		return append(dst, t.Sym...)
	case names.KindString:
		dst = append(dst, 's')
		return append(dst, t.Sym...)
	case names.KindInt:
		dst = append(dst, 'i')
		return binary.BigEndian.AppendUint64(dst, uint64(t.Num))
	default:
		dst = append(dst, 'v')
		return append(dst, t.Sym...)
	}
}

// MarshalRMC encodes an RMC for the wire (JSON: readable fields, protected
// by the signature rather than the encoding, as Sect. 5 notes — "the
// fields of appointment certificates (and RMCs) are readable, although
// protected from tampering and theft").
func MarshalRMC(r RMC) ([]byte, error) { return json.Marshal(r) }

// EncodeAppointmentGob encodes an appointment certificate in binary form.
func EncodeAppointmentGob(a AppointmentCertificate) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(a); err != nil {
		return nil, fmt.Errorf("gob encode appointment: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeAppointmentGob decodes the gob form.
func DecodeAppointmentGob(b []byte) (AppointmentCertificate, error) {
	var a AppointmentCertificate
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&a); err != nil {
		return AppointmentCertificate{}, fmt.Errorf("gob decode appointment: %w", err)
	}
	return a, nil
}

// UnmarshalRMC decodes an RMC from the wire.
func UnmarshalRMC(b []byte) (RMC, error) {
	var r RMC
	if err := json.Unmarshal(b, &r); err != nil {
		return RMC{}, fmt.Errorf("decode rmc: %w", err)
	}
	return r, nil
}

// MarshalAppointment encodes an appointment certificate for the wire.
func MarshalAppointment(a AppointmentCertificate) ([]byte, error) { return json.Marshal(a) }

// UnmarshalAppointment decodes an appointment certificate.
func UnmarshalAppointment(b []byte) (AppointmentCertificate, error) {
	var a AppointmentCertificate
	if err := json.Unmarshal(b, &a); err != nil {
		return AppointmentCertificate{}, fmt.Errorf("decode appointment: %w", err)
	}
	return a, nil
}
