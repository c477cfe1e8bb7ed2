// Package service turns the batch-oriented runtime into a long-lived
// multi-tenant task service: clients stream jobs over any comm transport
// into a front door at place 0, per-tenant admission control (token-bucket
// rate + in-flight quota) decides what enters, a weighted deficit
// round-robin scheduler shares the executor cluster fairly across tenants,
// and every admitted job completes exactly once — through executor joins,
// graceful drains, and failures — before its result is acked back to the
// submitting client.
//
// The package splits into the wire protocol (this file), admission control
// (admission.go), the fair-share dispatcher (fairshare.go), per-tenant
// statistics (stats.go), the streaming front door (server.go), the client
// session (client.go), a network load generator (loadgen.go), and a
// deterministic virtual-time service simulator (sim.go) that reuses the
// same admission and fair-share code for bit-identical fixed-seed runs.
package service

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The service job frame is the payload of every comm.KindSubmit message: a
// versioned binary header followed by the job's opaque argument. Like the
// membership payload it rides inside a comm frame, so it needs no own
// length prefix.
//
//	offset 0:  version (1 byte, frameVersion)
//	offset 1:  priority (1 byte; 0 = lowest)
//	offset 2:  tenant id (4 bytes, big endian)
//	offset 6:  job id (8 bytes, big endian; client-scoped)
//	offset 14: deadline (8 bytes, big endian, server-clock ns; 0 = none)
//	offset 22: task-name length n (2 bytes, big endian, <= MaxTaskName)
//	offset 24: task name (n bytes)
//	offset 24+n: argument (the rest of the frame)
const (
	frameVersion = 1
	jobHeaderLen = 24
	// MaxTaskName bounds the registry name a job may carry, so a corrupt
	// length field cannot smuggle an oversized allocation.
	MaxTaskName = 255
)

// Job is one unit of client-submitted work: which tenant it bills to,
// a client-scoped id the reply is correlated by, an optional deadline and
// priority, and the registered task it resolves to at an executor.
type Job struct {
	// Tenant is the tenant the job bills to (admission + fair share).
	Tenant uint32
	// ID correlates the reply; ids are scoped to the submitting client.
	ID uint64
	// Priority orders jobs within one tenant's queue (higher first);
	// tenants never preempt each other through it.
	Priority uint8
	// DeadlineNS, when nonzero, is the server-clock instant after which
	// the job is dropped with NackDeadline instead of dispatched.
	DeadlineNS int64
	// Name is the task-registry name executors resolve the job to.
	Name string
	// Arg is the job's opaque argument.
	Arg []byte
}

// The service reply frame is the payload of KindJobDone and KindJobNack:
//
//	offset 0:  version (1 byte, frameVersion)
//	offset 1:  code (1 byte; 0 = OK, otherwise a NackCode)
//	offset 2:  tenant id (4 bytes, big endian)
//	offset 6:  job id (8 bytes, big endian)
//	offset 14: retry-after (8 bytes, big endian ns; backoff hint, nacks only)
//	offset 22: result (the rest of the frame, completions only)
const replyHeaderLen = 22

// NackCode names why a submission was rejected.
type NackCode uint8

const (
	// OK is not a nack: the reply carries a completed job's result.
	OK NackCode = iota
	// NackUnknownTenant rejects a tenant the service has no config for.
	NackUnknownTenant
	// NackUnknownTask rejects a job naming an unregistered task.
	NackUnknownTask
	// NackRate rejects a submission that exceeded the tenant's
	// token-bucket rate; retry-after hints when the next token lands.
	NackRate
	// NackQuota rejects a submission while the tenant's in-flight quota
	// is exhausted; retry on a completion.
	NackQuota
	// NackOverload rejects a submission the dispatcher could not place
	// because every executor path was saturated (backpressure).
	NackOverload
	// NackDraining rejects a submission because the service is shutting
	// down gracefully.
	NackDraining
	// NackDeadline drops a job whose deadline passed before dispatch.
	NackDeadline
	// NackBadArg rejects a job whose argument its registered task.Func
	// refused at admission.
	NackBadArg
	numNackCodes
)

var nackNames = [...]string{
	OK:                "ok",
	NackUnknownTenant: "unknown-tenant",
	NackUnknownTask:   "unknown-task",
	NackRate:          "over-rate",
	NackQuota:         "over-quota",
	NackOverload:      "overload",
	NackDraining:      "draining",
	NackDeadline:      "deadline",
	NackBadArg:        "bad-arg",
}

// String names the code for diagnostics.
func (c NackCode) String() string {
	if int(c) < len(nackNames) {
		return nackNames[c]
	}
	return fmt.Sprintf("NackCode(%d)", uint8(c))
}

// Reply is the decoded form of a KindJobDone or KindJobNack payload.
type Reply struct {
	// Tenant and ID echo the submission being answered.
	Tenant uint32
	ID     uint64
	// Code is OK for a completion, otherwise the rejection reason.
	Code NackCode
	// RetryAfterNS hints how long the client should back off before
	// resubmitting a nacked job (0 = retry on external progress).
	RetryAfterNS int64
	// Result is the completed job's opaque result (nil on nacks).
	Result []byte
}

// ErrBadFrame is wrapped by every service frame decoding failure, so
// callers can errors.Is it without parsing messages.
var ErrBadFrame = errors.New("service: malformed service frame")

// AppendJob appends the job frame encoding of j to dst and returns the
// extended slice.
func AppendJob(dst []byte, j Job) []byte {
	dst = append(dst, frameVersion, j.Priority)
	dst = binary.BigEndian.AppendUint32(dst, j.Tenant)
	dst = binary.BigEndian.AppendUint64(dst, j.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(j.DeadlineNS))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(j.Name)))
	dst = append(dst, j.Name...)
	return append(dst, j.Arg...)
}

// DecodeJob parses a job frame. The returned job's Arg aliases b. A name
// longer than MaxTaskName, a truncated header, or an unknown version is
// rejected with a wrapped ErrBadFrame.
func DecodeJob(b []byte) (Job, error) {
	if len(b) < jobHeaderLen {
		return Job{}, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadFrame, len(b), jobHeaderLen)
	}
	if b[0] != frameVersion {
		return Job{}, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, b[0], frameVersion)
	}
	n := int(binary.BigEndian.Uint16(b[22:24]))
	if n > MaxTaskName {
		return Job{}, fmt.Errorf("%w: task name %d bytes, max %d", ErrBadFrame, n, MaxTaskName)
	}
	if len(b) < jobHeaderLen+n {
		return Job{}, fmt.Errorf("%w: name needs %d bytes, have %d", ErrBadFrame, n, len(b)-jobHeaderLen)
	}
	j := Job{
		Priority:   b[1],
		Tenant:     binary.BigEndian.Uint32(b[2:6]),
		ID:         binary.BigEndian.Uint64(b[6:14]),
		DeadlineNS: int64(binary.BigEndian.Uint64(b[14:22])),
		Name:       string(b[jobHeaderLen : jobHeaderLen+n]),
	}
	if rest := b[jobHeaderLen+n:]; len(rest) > 0 {
		j.Arg = rest
	}
	return j, nil
}

// AppendReply appends the reply frame encoding of r to dst and returns
// the extended slice.
func AppendReply(dst []byte, r Reply) []byte {
	dst = append(dst, frameVersion, byte(r.Code))
	dst = binary.BigEndian.AppendUint32(dst, r.Tenant)
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.RetryAfterNS))
	return append(dst, r.Result...)
}

// DecodeReply parses a reply frame. The returned reply's Result aliases b.
func DecodeReply(b []byte) (Reply, error) {
	if len(b) < replyHeaderLen {
		return Reply{}, fmt.Errorf("%w: %d bytes, want >= %d", ErrBadFrame, len(b), replyHeaderLen)
	}
	if b[0] != frameVersion {
		return Reply{}, fmt.Errorf("%w: version %d, want %d", ErrBadFrame, b[0], frameVersion)
	}
	if b[1] >= uint8(numNackCodes) {
		return Reply{}, fmt.Errorf("%w: unknown code %d", ErrBadFrame, b[1])
	}
	r := Reply{
		Code:         NackCode(b[1]),
		Tenant:       binary.BigEndian.Uint32(b[2:6]),
		ID:           binary.BigEndian.Uint64(b[6:14]),
		RetryAfterNS: int64(binary.BigEndian.Uint64(b[14:22])),
	}
	if rest := b[replyHeaderLen:]; len(rest) > 0 {
		r.Result = rest
	}
	return r, nil
}
