package task

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// wireEnvelope is a fully-populated envelope exercising every section of
// the binary format.
func wireEnvelope() *Envelope {
	return &Envelope{
		Name:   "svc.echo",
		Arg:    []byte{0xde, 0xad, 0xbe, 0xef},
		Home:   5,
		Origin: 2,
		Class:  Flexible,
		Tenant: 3,
	}
}

func sameEnvelope(a, b *Envelope) bool {
	return a.Name == b.Name && a.Home == b.Home && a.Origin == b.Origin &&
		a.Class == b.Class && a.Tenant == b.Tenant && bytes.Equal(a.Arg, b.Arg)
}

func TestEncodedLenMatchesEncode(t *testing.T) {
	for _, e := range []*Envelope{{}, {Name: "x"}, wireEnvelope()} {
		p, err := e.Encode()
		if err != nil {
			t.Fatalf("Encode(%+v): %v", e, err)
		}
		if len(p) != e.EncodedLen() {
			t.Fatalf("EncodedLen = %d, Encode produced %d bytes", e.EncodedLen(), len(p))
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := wireEnvelope()
	p1, _ := e.Encode()
	p2, _ := e.Encode()
	if !bytes.Equal(p1, p2) {
		t.Fatalf("Encode is not deterministic")
	}
	if p1[0] != envMagic || p1[1] != envVersion {
		t.Fatalf("frame starts %x %x, want magic %x version %x", p1[0], p1[1], envMagic, envVersion)
	}
}

func TestEncodeBounds(t *testing.T) {
	cases := []struct {
		name string
		e    Envelope
	}{
		{"name", Envelope{Name: strings.Repeat("n", 0x10000)}},
		{"arg", Envelope{Arg: make([]byte, MaxEnvelopeArg+1)}},
	}
	for _, tc := range cases {
		if _, err := tc.e.Encode(); !errors.Is(err, ErrEnvelopeTooLarge) {
			t.Fatalf("%s over bound: err = %v, want ErrEnvelopeTooLarge", tc.name, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	p, err := wireEnvelope().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a valid envelope is a truncation.
	for cut := 1; cut < len(p); cut++ {
		if _, err := DecodeEnvelope(p[:cut]); !errors.Is(err, ErrEnvelopeTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrEnvelopeTruncated", cut, err)
		}
	}
	if _, err := DecodeEnvelope(nil); !errors.Is(err, ErrEnvelopeTruncated) {
		t.Fatalf("empty payload: err = %v, want ErrEnvelopeTruncated", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	p, err := wireEnvelope().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(append(p, 0)); err == nil {
		t.Fatalf("trailing byte should be rejected")
	}
}

func TestDecodeBadVersion(t *testing.T) {
	p, err := wireEnvelope().Encode()
	if err != nil {
		t.Fatal(err)
	}
	p[1] = envVersion + 1
	if _, err := DecodeEnvelope(p); !errors.Is(err, ErrEnvelopeVersion) {
		t.Fatalf("bumped version: err = %v, want ErrEnvelopeVersion", err)
	}
}

func TestDecodeOversizedDeclaredLength(t *testing.T) {
	p, err := (&Envelope{Name: "x"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the arg length (right after the 2-byte name length + name)
	// to declare more than MaxEnvelopeArg: the decoder must refuse before
	// allocating.
	off := envFixed + 2 + 1
	p[off], p[off+1], p[off+2], p[off+3] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeEnvelope(p); !errors.Is(err, ErrEnvelopeTooLarge) {
		t.Fatalf("corrupt arg length: err = %v, want ErrEnvelopeTooLarge", err)
	}
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	p, err := wireEnvelope().Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEnvelope(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] = 0xAA
	}
	if !bytes.Equal(out.Arg, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("decoded Arg aliases the input buffer: %x", out.Arg)
	}
}
