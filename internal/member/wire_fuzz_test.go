package member

import (
	"bytes"
	"testing"
)

// FuzzMemberPayload feeds arbitrary bytes to the membership payload
// decoder (DecodePayload must never panic and must reject malformed
// input with ErrBadPayload) and round-trips every accepted payload,
// mirroring comm's FuzzWireFrame for the frames these payloads ride in.
func FuzzMemberPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendPayload(nil, Payload{Incarnation: 1}))
	f.Add(AppendPayload(nil, Payload{Incarnation: 1 << 31, State: Left}))
	f.Add(bytes.Repeat([]byte{0xff}, PayloadSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		re := AppendPayload(nil, p)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch: %x -> %+v -> %x", data, p, re)
		}
		p2, err := DecodePayload(re)
		if err != nil || p2 != p {
			t.Fatalf("round trip: %+v, %v", p2, err)
		}
	})
}
