package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func wireSamples() []Message {
	return []Message{
		{},
		{Kind: KindSpawn, From: 0, To: 3, Seq: 42, Payload: []byte("task payload")},
		{Kind: KindSpawnDone, From: 3, To: 0, Seq: 42, Payload: []byte{0}},
		{Kind: KindHeartbeat, From: 7, To: 0, Seq: 1<<64 - 1},
		{Kind: KindSubmit, From: 4, To: 0, Seq: 9, Payload: bytes.Repeat([]byte{0xab}, 1024)},
		{Kind: KindData, From: -1, To: -1, Seq: 0, Payload: []byte{}},
		{Kind: KindJoin, From: 15, To: 0},
		{Kind: KindShutdown, From: 0, To: 2},
		{Kind: KindHello, From: 5, To: 0},
		{Kind: KindPlaceDown, From: 2, To: 0},
	}
}

func sameMessage(a, b Message) bool {
	return a.Kind == b.Kind && a.From == b.From && a.To == b.To && a.Seq == b.Seq &&
		bytes.Equal(a.Payload, b.Payload)
}

func TestWireRoundTripAllKinds(t *testing.T) {
	for _, m := range wireSamples() {
		frame := AppendFrame(nil, m)
		if want := wirePrefixLen + wireHeaderLen + len(m.Payload); len(frame) != want {
			t.Errorf("%v: frame is %d bytes, want %d", m.Kind, len(frame), want)
		}
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: DecodeFrame: %v", m.Kind, err)
		}
		if n != len(frame) {
			t.Errorf("%v: consumed %d of %d bytes", m.Kind, n, len(frame))
		}
		if !sameMessage(got, m) {
			t.Errorf("%v: round trip %+v != %+v", m.Kind, got, m)
		}
	}
}

func TestWireStreamRoundTrip(t *testing.T) {
	var stream []byte
	for _, m := range wireSamples() {
		stream = AppendFrame(stream, m)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range wireSamples() {
		var got Message
		var err error
		got, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMessage(got, want) {
			t.Errorf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

func TestWireRejectsTruncation(t *testing.T) {
	frame := AppendFrame(nil, Message{Kind: KindSpawn, To: 1, Payload: []byte("hello")})
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut]); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("DecodeFrame of %d/%d bytes: err = %v, want ErrTruncatedFrame", cut, len(frame), err)
		}
	}
	// A reader over a mid-frame-dead connection must also reject. cut == 0
	// is a clean EOF between frames, not a truncation.
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:cut]), nil)
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("ReadFrame of %d/%d bytes: err = %v, want ErrTruncatedFrame", cut, len(frame), err)
		}
	}
}

func TestWireRejectsOversizedLength(t *testing.T) {
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(wireHeaderLen+MaxFramePayload+1))
	if _, _, err := DecodeFrame(prefix[:]); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame oversized: err = %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(prefix[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame oversized: err = %v, want ErrFrameTooLarge", err)
	}
	// An undersized body (smaller than the header) is equally invalid.
	binary.BigEndian.PutUint32(prefix[:], wireHeaderLen-1)
	if _, _, err := DecodeFrame(prefix[:]); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("DecodeFrame undersized: err = %v, want ErrTruncatedFrame", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(prefix[:]), nil); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("ReadFrame undersized: err = %v, want ErrTruncatedFrame", err)
	}
}

func TestWireBufferReuseDoesNotAlias(t *testing.T) {
	// Consecutive ReadFrame calls reuse the scratch buffer: the payload of
	// frame 1 must be consumed (or copied) before frame 2 is read.
	var stream []byte
	stream = AppendFrame(stream, Message{Kind: KindData, To: 1, Payload: []byte("first")})
	stream = AppendFrame(stream, Message{Kind: KindData, To: 1, Payload: []byte("secnd")})
	r := bytes.NewReader(stream)
	m1, buf, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied := string(m1.Payload)
	if _, _, err := ReadFrame(r, buf); err != nil {
		t.Fatal(err)
	}
	if copied != "first" {
		t.Fatalf("copied payload = %q, want %q", copied, "first")
	}
}
