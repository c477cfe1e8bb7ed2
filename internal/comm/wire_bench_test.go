package comm

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// benchMessages are two shapes programs send: a heartbeat, the small
// latency-bound control frame (its 6-byte membership payload), and a
// spawn envelope with a small task payload.
func benchMessages() []Message {
	return []Message{
		{Kind: KindHeartbeat, From: 3, To: 0, Seq: 99, Payload: make([]byte, 6)},
		{Kind: KindSpawn, From: 0, To: 5, Seq: 12, Payload: bytes.Repeat([]byte{0x5a}, 64)},
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	msgs := benchMessages()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := msgs[i%len(msgs)]
		buf = AppendFrame(buf[:0], m)
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGobEncodeDecode measures the stream-steady-state gob cost the
// wire codec replaced: one encoder/decoder pair per connection (type
// descriptors amortized), one Encode+Decode per message.
func BenchmarkGobEncodeDecode(b *testing.B) {
	msgs := benchMessages()
	var pipe bytes.Buffer
	enc := gob.NewEncoder(&pipe)
	dec := gob.NewDecoder(&pipe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(msgs[i%len(msgs)]); err != nil {
			b.Fatal(err)
		}
		var out Message
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}
