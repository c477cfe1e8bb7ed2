package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The binary wire format framing every Message on the TCP transports.
//
// Replacing encoding/gob on the hot path matters because heartbeats, job
// replies and acknowledgements are tiny, latency-bound control messages: gob
// spends reflection and per-stream type descriptors on them, while this
// codec is a fixed 17-byte header behind a 4-byte length prefix. User task
// payloads stay opaque []byte here — applications keep encoding them with
// gob (or anything else) via the task registry.
//
//	offset  size  field
//	0       4     frame length N (big endian, header + payload, excl. itself)
//	4       1     Kind
//	5       4     From (int32, big endian)
//	9       4     To (int32, big endian)
//	13      8     Seq (uint64, big endian)
//	21      N-17  Payload
const (
	wireHeaderLen = 17
	wirePrefixLen = 4
)

// MaxFramePayload bounds a frame's payload so a corrupt or hostile length
// prefix cannot make a reader allocate unbounded memory.
const MaxFramePayload = 16 << 20

// Wire-codec error surface. Match with errors.Is.
var (
	// ErrFrameTooLarge reports a length prefix exceeding MaxFramePayload.
	ErrFrameTooLarge = errors.New("comm: frame exceeds max payload")
	// ErrTruncatedFrame reports a frame shorter than its declared length
	// (or shorter than the fixed header).
	ErrTruncatedFrame = errors.New("comm: truncated frame")
)

// AppendFrame appends the wire encoding of m to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so senders
// reuse one scratch buffer across messages (and coalesce many frames into
// it before a single write).
func AppendFrame(dst []byte, m Message) []byte {
	body := wireHeaderLen + len(m.Payload)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(m.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.To)))
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	return append(dst, m.Payload...)
}

// DecodeFrame parses one frame from the front of b, returning the message
// and the number of bytes consumed. A frame whose length prefix exceeds
// MaxFramePayload is rejected with ErrFrameTooLarge; one that declares
// more bytes than b holds (or fewer than the fixed header) is rejected
// with ErrTruncatedFrame. The returned payload aliases b.
func DecodeFrame(b []byte) (Message, int, error) {
	if len(b) < wirePrefixLen {
		return Message{}, 0, fmt.Errorf("%w: %d-byte prefix", ErrTruncatedFrame, len(b))
	}
	body := int(binary.BigEndian.Uint32(b))
	if body < wireHeaderLen {
		return Message{}, 0, fmt.Errorf("%w: declared body %d < header %d", ErrTruncatedFrame, body, wireHeaderLen)
	}
	if body-wireHeaderLen > MaxFramePayload {
		return Message{}, 0, fmt.Errorf("%w: declared payload %d", ErrFrameTooLarge, body-wireHeaderLen)
	}
	if len(b) < wirePrefixLen+body {
		return Message{}, 0, fmt.Errorf("%w: have %d of %d bytes", ErrTruncatedFrame, len(b), wirePrefixLen+body)
	}
	m, err := decodeBody(b[wirePrefixLen : wirePrefixLen+body])
	if err != nil {
		return Message{}, 0, err
	}
	return m, wirePrefixLen + body, nil
}

func decodeBody(body []byte) (Message, error) {
	m := Message{
		Kind: Kind(body[0]),
		From: int(int32(binary.BigEndian.Uint32(body[1:]))),
		To:   int(int32(binary.BigEndian.Uint32(body[5:]))),
		Seq:  binary.BigEndian.Uint64(body[9:]),
	}
	if len(body) > wireHeaderLen {
		m.Payload = body[wireHeaderLen:]
	}
	return m, nil
}

// ReadFrame reads one complete frame from r, using buf as scratch storage
// (grown as needed) and returning the possibly regrown buffer for reuse.
// The returned message's payload aliases the buffer, so callers must copy
// it if they read another frame before consuming the message. A clean EOF
// before any byte surfaces as io.EOF; a connection dying mid-frame
// surfaces as ErrTruncatedFrame.
func ReadFrame(r io.Reader, buf []byte) (Message, []byte, error) {
	var prefix [wirePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: connection died inside length prefix", ErrTruncatedFrame)
		}
		return Message{}, buf, err
	}
	body := int(binary.BigEndian.Uint32(prefix[:]))
	if body < wireHeaderLen {
		return Message{}, buf, fmt.Errorf("%w: declared body %d < header %d", ErrTruncatedFrame, body, wireHeaderLen)
	}
	if body-wireHeaderLen > MaxFramePayload {
		return Message{}, buf, fmt.Errorf("%w: declared payload %d", ErrFrameTooLarge, body-wireHeaderLen)
	}
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	buf = buf[:body]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: connection died inside %d-byte body", ErrTruncatedFrame, body)
		}
		return Message{}, buf, err
	}
	m, err := decodeBody(buf)
	return m, buf, err
}
