package cert

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/names"
	"repro/internal/sign"
)

func testRing(t *testing.T) *sign.KeyRing {
	t.Helper()
	kr, err := sign.NewKeyRing(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func doctorRole(t *testing.T) names.Role {
	t.Helper()
	rn := names.MustRoleName("hospital", "treating_doctor", 2)
	return names.MustRole(rn, names.Atom("d17"), names.Int(42))
}

func TestIssueVerifyRMC(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "principal-1", doctorRole(t), CRR{Issuer: "hospital", Serial: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(ring, "principal-1"); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if r.Ref.String() != "hospital#7" {
		t.Errorf("CRR.String = %q", r.Ref.String())
	}
}

func TestRMCRejectsNonGroundRole(t *testing.T) {
	ring := testRing(t)
	rn := names.MustRoleName("hospital", "treating_doctor", 2)
	role := names.MustRole(rn, names.Var("D"), names.Int(1))
	if _, err := IssueRMC(ring, "p", role, CRR{}); !errors.Is(err, ErrNotGround) {
		t.Errorf("non-ground role accepted: %v", err)
	}
}

func TestRMCTheftProtection(t *testing.T) {
	// An RMC presented by a different principal must fail: the principal
	// id is an argument to the signature (Fig. 4).
	ring := testRing(t)
	r, err := IssueRMC(ring, "alice-session", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(ring, "mallory-session"); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("stolen RMC accepted: %v", err)
	}
}

func TestRMCTamperParams(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "p", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Adversary rewrites the patient id parameter.
	r.Role.Params[1] = names.Int(99)
	if err := r.Verify(ring, "p"); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("tampered parameter accepted: %v", err)
	}
}

func TestRMCTamperRoleName(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "p", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Role.Name.Name = "chief_surgeon"
	if err := r.Verify(ring, "p"); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("tampered role name accepted: %v", err)
	}
}

func TestRMCTamperCRR(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "p", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Ref.Serial = 2
	if err := r.Verify(ring, "p"); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("tampered CRR accepted: %v", err)
	}
}

func TestRMCForgeryWithoutSecret(t *testing.T) {
	issuerRing := testRing(t)
	forgerRing := testRing(t)
	r, err := IssueRMC(forgerRing, "p", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(issuerRing, "p"); err == nil {
		t.Error("forged RMC (signed under adversary's own key) accepted by issuer")
	}
}

func TestRMCSurvivesRotationWithinWindow(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "p", doctorRole(t), CRR{Issuer: "h", Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(ring, "p"); err != nil {
		t.Errorf("RMC within retention window rejected: %v", err)
	}
	if err := ring.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(ring, "p"); !errors.Is(err, sign.ErrUnknownKey) {
		t.Errorf("RMC beyond retention window: %v", err)
	}
}

func TestRMCMarshalRoundTrip(t *testing.T) {
	ring := testRing(t)
	r, err := IssueRMC(ring, "p", doctorRole(t), CRR{Issuer: "h", Serial: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalRMC(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRMC(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(ring, "p"); err != nil {
		t.Errorf("round-tripped RMC failed verification: %v", err)
	}
}

func TestUnmarshalRMCGarbage(t *testing.T) {
	if _, err := UnmarshalRMC([]byte("{not json")); err == nil {
		t.Error("garbage decoded")
	}
}

func newAppointment(t *testing.T, ring *sign.KeyRing, expires time.Time) AppointmentCertificate {
	t.Helper()
	a, err := IssueAppointment(ring, AppointmentCertificate{
		Issuer:      "hospital-admin",
		Serial:      11,
		Kind:        "employed_as_doctor",
		Params:      []names.Term{names.Atom("st_marys")},
		Holder:      "dr-jones-longterm-key",
		AppointedBy: "admin-7",
		IssuedAt:    time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC),
		ExpiresAt:   expires,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAppointmentVerify(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := a.Verify(ring, time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestAppointmentExpiry(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := a.Verify(ring, time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)); !errors.Is(err, ErrExpired) {
		t.Errorf("expired appointment: %v", err)
	}
}

func TestAppointmentNoExpiry(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Time{})
	if err := a.Verify(ring, time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Errorf("zero-expiry appointment rejected: %v", err)
	}
}

func TestAppointmentHolderRebindFails(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Time{})
	a.Holder = "thief-key"
	if err := a.Verify(ring, time.Unix(0, 0)); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("holder-rebound appointment accepted: %v", err)
	}
}

func TestAppointmentTamperKindAndParams(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Time{})
	b := a
	b.Kind = "hospital_director"
	if err := b.Verify(ring, time.Unix(0, 0)); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("tampered kind accepted: %v", err)
	}
	c := a
	c.Params = []names.Term{names.Atom("other_hospital")}
	if err := c.Verify(ring, time.Unix(0, 0)); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("tampered params accepted: %v", err)
	}
	d := a
	d.ExpiresAt = time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := d.Verify(ring, time.Unix(0, 0)); !errors.Is(err, sign.ErrBadSignature) {
		t.Errorf("extended expiry accepted: %v", err)
	}
}

func TestAppointmentRejectsNonGroundParam(t *testing.T) {
	ring := testRing(t)
	_, err := IssueAppointment(ring, AppointmentCertificate{
		Issuer: "x", Kind: "k", Holder: "h",
		Params: []names.Term{names.Var("H")},
	})
	if !errors.Is(err, ErrNotGround) {
		t.Errorf("non-ground appointment accepted: %v", err)
	}
}

func TestAppointmentMarshalRoundTrip(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC))
	b, err := MarshalAppointment(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAppointment(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(ring, time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Errorf("round-tripped appointment failed: %v", err)
	}
	if _, err := UnmarshalAppointment([]byte("nope")); err == nil {
		t.Error("garbage appointment decoded")
	}
}

func TestAppointmentKey(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Time{})
	if a.Key() != "hospital-admin#appt#11" {
		t.Errorf("Key = %q", a.Key())
	}
}

func TestGobRoundTrips(t *testing.T) {
	ring := testRing(t)
	a := newAppointment(t, ring, time.Time{})
	ab, err := EncodeAppointmentGob(a)
	if err != nil {
		t.Fatal(err)
	}
	aBack, err := DecodeAppointmentGob(ab)
	if err != nil {
		t.Fatal(err)
	}
	if err := aBack.Verify(ring, time.Unix(0, 0)); err != nil {
		t.Errorf("gob round-tripped appointment failed verification: %v", err)
	}
	if _, err := DecodeAppointmentGob([]byte("junk")); err == nil {
		t.Error("garbage gob appointment decoded")
	}
}

// Property (E4): adversarial mutation of any RMC parameter value is always
// detected.
func TestQuickRMCParamMutationDetected(t *testing.T) {
	ring := testRing(t)
	rn := names.MustRoleName("svc", "r", 1)
	f := func(orig, mutated int64) bool {
		if orig == mutated {
			return true
		}
		r, err := IssueRMC(ring, "p", names.MustRole(rn, names.Int(orig)), CRR{Issuer: "svc", Serial: 1})
		if err != nil {
			return false
		}
		r.Role.Params[0] = names.Int(mutated)
		return r.Verify(ring, "p") != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RMCs verify for exactly the principal they were issued to.
func TestQuickRMCPrincipalBinding(t *testing.T) {
	ring := testRing(t)
	rn := names.MustRoleName("svc", "r", 0)
	role := names.MustRole(rn)
	f := func(issuedTo, presenter string) bool {
		r, err := IssueRMC(ring, issuedTo, role, CRR{Issuer: "svc", Serial: 2})
		if err != nil {
			return false
		}
		err = r.Verify(ring, presenter)
		if issuedTo == presenter {
			return err == nil
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
