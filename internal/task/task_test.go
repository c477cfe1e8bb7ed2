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
	if r.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", r.Len())
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
		Name:    "apps.kmeans.assign",
		Arg:     []byte{1, 2, 3, 4},
		Home:    3,
		Origin:  0,
		Class:   Flexible,
		Blocks:  []uint64{10, 11, 12},
		Tenant:  7,
		Inputs:  []uint64{1 << 40, 2},
		Outputs: []uint64{3},
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
		out.Class != in.Class || out.Tenant != in.Tenant ||
		len(out.Arg) != 4 || len(out.Blocks) != 3 ||
		len(out.Inputs) != 2 || out.Inputs[0] != 1<<40 ||
		len(out.Outputs) != 1 || out.Outputs[0] != 3 {
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

func TestGobSize(t *testing.T) {
	n, err := GobSize([]float64{1, 2, 3})
	if err != nil || n <= 0 {
		t.Fatalf("GobSize = %d, %v", n, err)
	}
	big, err := GobSize(make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if big <= n {
		t.Fatalf("larger value should gob-encode larger: %d vs %d", big, n)
	}
}

func TestGobSizeUnencodable(t *testing.T) {
	if _, err := GobSize(func() {}); err == nil {
		t.Fatalf("GobSize of a func should error")
	}
}

func TestGobSizeError(t *testing.T) {
	_, err := GobSize(make(chan int))
	if err == nil {
		t.Fatalf("GobSize of a channel should error")
	}
	if !strings.Contains(err.Error(), "task: sizing value") {
		t.Fatalf("error should carry the package prefix, got %q", err)
	}
}
