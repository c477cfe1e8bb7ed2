package task

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	if got := Sensitive.String(); got != "locality-sensitive" {
		t.Fatalf("Sensitive.String() = %q", got)
	}
	if got := Flexible.String(); got != "locality-flexible" {
		t.Fatalf("Flexible.String() = %q", got)
	}
	if got := Class(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown class String() = %q", got)
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	called := false
	r.Register("demo.fn", func(arg []byte) error {
		called = string(arg) == "payload"
		return nil
	})
	fn, ok := r.Lookup("demo.fn")
	if !ok {
		t.Fatalf("Lookup failed for registered name")
	}
	if err := fn([]byte("payload")); err != nil || !called {
		t.Fatalf("registered fn not invoked correctly: err=%v called=%v", err, called)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatalf("Lookup of unregistered name should fail")
	}
	if len(r.fns) != 1 {
		t.Fatalf("%d functions registered, want 1", len(r.fns))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("x", func([]byte) error { return nil })
	assertPanics(t, func() { r.Register("x", func([]byte) error { return nil }) })
}

func TestRegistryEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	assertPanics(t, func() { r.Register("", func([]byte) error { return nil }) })
}

func TestRegistryNilFuncPanics(t *testing.T) {
	r := NewRegistry()
	assertPanics(t, func() { r.Register("y", nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	f()
}

func TestEnvelopeRoundTrip(t *testing.T) {
	in := &Envelope{
		Name:   "apps.kmeans.assign",
		Arg:    []byte{1, 2, 3, 4},
		Home:   3,
		Origin: 0,
		Class:  Flexible,
		Tenant: 7,
	}
	p, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeEnvelope(p)
	if err != nil {
		t.Fatalf("DecodeEnvelope: %v", err)
	}
	if out.Name != in.Name || out.Home != in.Home || out.Origin != in.Origin ||
		out.Class != in.Class || out.Tenant != in.Tenant || len(out.Arg) != 4 {
		t.Fatalf("round-trip mismatch: %+v vs %+v", out, in)
	}
}

func TestDecodeEnvelopeGarbage(t *testing.T) {
	if _, err := DecodeEnvelope([]byte("not an envelope")); !errors.Is(err, ErrEnvelopeMagic) {
		t.Fatalf("decoding garbage: err = %v, want ErrEnvelopeMagic", err)
	}
}

// Property: Envelope round-trips for arbitrary payloads and metadata.
// Home and Origin are int32 on the wire — place ids are small — so the
// generator draws from that range.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(name string, arg []byte, home, origin int32, flexible bool) bool {
		class := Sensitive
		if flexible {
			class = Flexible
		}
		in := &Envelope{Name: name, Arg: arg, Home: int(home), Origin: int(origin), Class: class}
		p, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeEnvelope(p)
		if err != nil {
			return false
		}
		if out.Name != in.Name || out.Home != in.Home ||
			out.Origin != in.Origin || out.Class != in.Class {
			return false
		}
		if len(out.Arg) != len(in.Arg) {
			return false
		}
		for i := range in.Arg {
			if out.Arg[i] != in.Arg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
