package task

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary envelope format. Envelopes cross process boundaries on
// every remote spawn, steal reply, and service submission; gob spent
// reflection and a per-message type descriptor on each one (the
// descriptor alone dwarfed a typical envelope). This codec is the
// internal/comm wire.go style instead: fixed header, length-prefixed
// variable sections, no reflection, byte-for-byte deterministic.
//
//	offset  size  field
//	0       1     magic 0xE7
//	1       1     format version (2)
//	2       1     Class
//	3       4     Tenant (uint32, big endian)
//	7       4     Home (int32, big endian)
//	11      4     Origin (int32, big endian)
//	15      2     len(Name) (uint16) followed by the name bytes
//	...     4     len(Arg) (uint32) followed by the arg bytes
//
// The magic byte is the whole format check: a payload that does not open
// with it is rejected with ErrEnvelopeMagic before any length field is
// read, so every byte sequence that decodes has passed the bounds below.
const (
	envMagic   = 0xE7
	envVersion = 2
	envFixed   = 15 // magic through Origin
)

// MaxEnvelopeArg bounds the encoded argument payload, mirroring
// comm.MaxFramePayload's role: a corrupt length field must not drive
// allocation.
const MaxEnvelopeArg = 16 << 20

// Envelope-codec error surface. Match with errors.Is.
var (
	// ErrEnvelopeTooLarge reports a section exceeding its bound, on
	// either side of the wire.
	ErrEnvelopeTooLarge = errors.New("task: envelope section exceeds bound")
	// ErrEnvelopeTruncated reports an envelope shorter than its declared
	// sections.
	ErrEnvelopeTruncated = errors.New("task: truncated envelope")
	// ErrEnvelopeMagic reports a payload that does not begin with the
	// envelope magic byte: not an envelope at all.
	ErrEnvelopeMagic = errors.New("task: not an envelope")
	// ErrEnvelopeVersion reports an unknown format version behind a
	// valid magic byte.
	ErrEnvelopeVersion = errors.New("task: unknown envelope version")
)

// EncodedLen returns the exact size Encode produces for e.
func (e *Envelope) EncodedLen() int {
	return envFixed + 2 + len(e.Name) + 4 + len(e.Arg)
}

// Encode serializes the envelope in the binary format above.
func (e *Envelope) Encode() ([]byte, error) {
	switch {
	case len(e.Name) > 0xFFFF:
		return nil, fmt.Errorf("%w: name %d bytes", ErrEnvelopeTooLarge, len(e.Name))
	case len(e.Arg) > MaxEnvelopeArg:
		return nil, fmt.Errorf("%w: arg %d bytes", ErrEnvelopeTooLarge, len(e.Arg))
	}
	out := make([]byte, 0, e.EncodedLen())
	out = append(out, envMagic, envVersion, byte(e.Class))
	out = binary.BigEndian.AppendUint32(out, e.Tenant)
	out = binary.BigEndian.AppendUint32(out, uint32(int32(e.Home)))
	out = binary.BigEndian.AppendUint32(out, uint32(int32(e.Origin)))
	out = binary.BigEndian.AppendUint16(out, uint16(len(e.Name)))
	out = append(out, e.Name...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Arg)))
	out = append(out, e.Arg...)
	return out, nil
}

// DecodeEnvelope deserializes an envelope produced by Encode. The bytes
// come off the network, so every failure is a typed error and no declared
// length is trusted beyond its bound.
func DecodeEnvelope(p []byte) (*Envelope, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrEnvelopeTruncated)
	}
	if p[0] != envMagic {
		return nil, fmt.Errorf("%w: first byte %#x", ErrEnvelopeMagic, p[0])
	}
	if len(p) < envFixed {
		return nil, fmt.Errorf("%w: %d of %d header bytes", ErrEnvelopeTruncated, len(p), envFixed)
	}
	if p[1] != envVersion {
		return nil, fmt.Errorf("%w: %d", ErrEnvelopeVersion, p[1])
	}
	e := &Envelope{
		Class:  Class(p[2]),
		Tenant: binary.BigEndian.Uint32(p[3:]),
		Home:   int(int32(binary.BigEndian.Uint32(p[7:]))),
		Origin: int(int32(binary.BigEndian.Uint32(p[11:]))),
	}
	rest := p[envFixed:]

	take := func(n int, what string) ([]byte, error) {
		if len(rest) < n {
			return nil, fmt.Errorf("%w: %s needs %d bytes, have %d", ErrEnvelopeTruncated, what, n, len(rest))
		}
		b := rest[:n]
		rest = rest[n:]
		return b, nil
	}

	b, err := take(2, "name length")
	if err != nil {
		return nil, err
	}
	if b, err = take(int(binary.BigEndian.Uint16(b)), "name"); err != nil {
		return nil, err
	}
	e.Name = string(b)

	if b, err = take(4, "arg length"); err != nil {
		return nil, err
	}
	argLen := int(binary.BigEndian.Uint32(b))
	if argLen > MaxEnvelopeArg {
		return nil, fmt.Errorf("%w: declared arg %d bytes", ErrEnvelopeTooLarge, argLen)
	}
	if b, err = take(argLen, "arg"); err != nil {
		return nil, err
	}
	if argLen > 0 {
		e.Arg = append([]byte(nil), b...) // do not alias the caller's buffer
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("task: envelope has %d trailing bytes", len(rest))
	}
	return e, nil
}
