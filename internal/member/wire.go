package member

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Payload is the body of every membership message (heartbeat, join,
// drain, heartbeat ack). It rides inside a comm.Message frame, so it
// needs no own length prefix — just a fixed binary layout:
//
//	offset 0: version (1 byte, payloadVersion)
//	offset 1: state   (1 byte, the sender's view of the subject place)
//	offset 2: incarnation (4 bytes, big-endian)
type Payload struct {
	// Incarnation is the subject place's incarnation number.
	Incarnation uint32
	// State is the sender's view of the subject place. In a heartbeat
	// ack it tells the executor what the front door thinks of it —
	// seeing Down here is how a partitioned executor learns it must
	// rejoin with a bumped incarnation.
	State State
}

const (
	payloadVersion = 2
	// PayloadSize is the encoded size of a Payload in bytes.
	PayloadSize = 6
)

// ErrBadPayload is wrapped by every DecodePayload failure, so callers
// can errors.Is it without parsing messages.
var ErrBadPayload = errors.New("member: malformed membership payload")

// AppendPayload appends the encoded payload to dst and returns the
// extended slice.
func AppendPayload(dst []byte, p Payload) []byte {
	var buf [PayloadSize]byte
	buf[0] = payloadVersion
	buf[1] = byte(p.State)
	binary.BigEndian.PutUint32(buf[2:6], p.Incarnation)
	return append(dst, buf[:]...)
}

// DecodePayload parses an encoded membership payload.
func DecodePayload(b []byte) (Payload, error) {
	if len(b) != PayloadSize {
		return Payload{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadPayload, len(b), PayloadSize)
	}
	if b[0] != payloadVersion {
		return Payload{}, fmt.Errorf("%w: version %d, want %d", ErrBadPayload, b[0], payloadVersion)
	}
	if b[1] >= uint8(len(stateNames)) {
		return Payload{}, fmt.Errorf("%w: unknown state %d", ErrBadPayload, b[1])
	}
	return Payload{
		State:       State(b[1]),
		Incarnation: binary.BigEndian.Uint32(b[2:6]),
	}, nil
}
