package task

import (
	"errors"
	"strings"
	"testing"
)

// FuzzEnvelope checks the two safety properties of the envelope codec:
//
//  1. Encode→decode identity: any envelope assembled from the fuzzed
//     fields either round-trips bit-exactly or Encode refuses it with a
//     typed bounds error.
//  2. Decoder robustness: arbitrary bytes (including the valid envelope
//     truncated at a fuzzer-chosen point) either decode cleanly or fail
//     with an error — never panic, never allocate beyond the section
//     bounds.
func FuzzEnvelope(f *testing.F) {
	f.Add("svc.echo", []byte{1, 2, 3}, int32(0), int32(1), uint32(0), []byte{})
	f.Add("", []byte{}, int32(-1), int32(-1), ^uint32(0), []byte{0xE7, 0x02})
	f.Add(strings.Repeat("n", 300), []byte{0xff}, int32(1<<30), int32(42), uint32(7), []byte{0xE7, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, name string, arg []byte, home, origin int32, tenant uint32, raw []byte) {
		e := &Envelope{
			Name:   name,
			Arg:    arg,
			Home:   int(home),
			Origin: int(origin),
			Class:  Flexible,
			Tenant: tenant,
		}
		p, err := e.Encode()
		if err != nil {
			if !errors.Is(err, ErrEnvelopeTooLarge) {
				t.Fatalf("Encode: untyped error %v", err)
			}
			return
		}
		if len(p) != e.EncodedLen() {
			t.Fatalf("EncodedLen = %d, Encode produced %d", e.EncodedLen(), len(p))
		}
		got, err := DecodeEnvelope(p)
		if err != nil {
			t.Fatalf("DecodeEnvelope of a valid envelope: %v", err)
		}
		if !sameEnvelope(e, got) {
			t.Fatalf("round trip: %+v != %+v", got, e)
		}

		// Every strict prefix of a valid envelope is a truncation.
		cut := len(raw) % len(p) // fuzzer-chosen truncation point; len(p) >= envFixed
		if cut > 0 {
			if _, err := DecodeEnvelope(p[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(p))
			}
		}

		// Arbitrary bytes must never panic the decoder. Errors are fine
		// (anything that does not open with the magic byte is rejected
		// outright), but a successful decode must stay within bounds.
		if d, err := DecodeEnvelope(raw); err == nil && len(d.Arg) > MaxEnvelopeArg {
			t.Fatalf("decoded envelope exceeds bounds: %+v", d)
		}
	})
}
