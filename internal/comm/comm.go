// Package comm provides the inter-place message layer of the runtime.
// Three interchangeable transports implement the same Endpoint interface,
// selected by a Transport value (ParseTransport resolves flag strings):
//
//   - TransportInproc (Mesh): in-process channels, used when all places
//     live in one OS process (the common library configuration). Messages
//     still flow through explicit envelopes so that the message and byte
//     counters of Table III are meaningful.
//   - TransportTCPHub (Hub/Spoke): a star-topology transport (place 0 is
//     the hub) where spoke-to-spoke traffic transits the hub — two hops.
//   - TransportTCPMesh (TCPMesh): a peer-to-peer transport where every
//     place listens and links are dialed lazily on first send — one hop,
//     with per-link write coalescing under load.
//
// Both TCP transports frame messages with the length-prefixed binary
// codec in wire.go; gob survives only inside user task payloads, which
// this package treats as opaque bytes. Open builds the distributed
// transports from a NodeConfig; cmd/distws-node is the reference user.
//
// Every send increments the shared metrics.Counters: one message plus the
// payload bytes. This is the accounting source for the paper's Table III —
// which is why the hub's second hop and the mesh's single hop are visible
// in the message counts.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distws/internal/fault"
	"distws/internal/metrics"
)

// Kind discriminates message purposes on the wire.
type Kind uint8

const (
	// KindSpawn carries a task envelope to execute at the destination.
	KindSpawn Kind = iota
	// KindSpawnDone acknowledges completion of a remotely spawned task
	// (used for distributed finish accounting).
	KindSpawnDone
	// KindStealReq asks the destination for surplus work.
	KindStealReq
	// KindStealResp answers a steal request (payload empty on failure).
	KindStealResp
	// KindData is an application-level remote data access (at() traffic).
	KindData
	// KindLifeline registers the sender on the destination's lifeline.
	KindLifeline
	// KindShutdown tells the destination to stop its workers.
	KindShutdown
)

// Membership protocol kinds (internal/member). Numbered from 210 to
// stay clear of both the dense scheduler kinds above and the transport
// kinds (KindHello/KindPlaceDown at 200/201).
const (
	// KindHeartbeat carries a liveness beat from a member to the
	// coordinator, and the coordinator's ack back (payload:
	// member.Payload). Heartbeats are lossy — the next beat supersedes
	// a lost one.
	KindHeartbeat Kind = 210
	// KindJoin announces a place joining (or rejoining with a bumped
	// incarnation); payload: member.Payload.
	KindJoin Kind = 211
	// KindDrain announces the start of a graceful drain; payload:
	// member.Payload.
	KindDrain Kind = 212
	// KindSpawnNack returns a queued-but-unstarted batch from a
	// draining place so the coordinator re-dispatches it to a survivor;
	// Seq carries the batch id like KindSpawn/KindSpawnDone.
	KindSpawnNack Kind = 213
)

// Service protocol kinds (internal/service). Numbered from 220: the
// long-lived task service speaks these between client seats and the
// front door (place 0), on top of the same transports.
const (
	// KindSubmit streams one job from a client seat into the service;
	// payload: a service job frame (versioned header + opaque argument).
	KindSubmit Kind = 220
	// KindJobDone returns a completed job's result to the submitting
	// client; payload: a service reply frame carrying the result.
	KindJobDone Kind = 221
	// KindJobNack rejects a submission (admission control, unknown
	// tenant, draining service); payload: a service reply frame whose
	// code names the reason and whose retry-after hints at backoff.
	KindJobNack Kind = 222
)

var kindNames = [...]string{
	KindSpawn:     "spawn",
	KindSpawnDone: "spawn-done",
	KindStealReq:  "steal-req",
	KindStealResp: "steal-resp",
	KindData:      "data",
	KindLifeline:  "lifeline",
	KindShutdown:  "shutdown",
}

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindPlaceDown:
		return "place-down"
	case KindHeartbeat:
		return "heartbeat"
	case KindJoin:
		return "join"
	case KindDrain:
		return "drain"
	case KindSpawnNack:
		return "spawn-nack"
	case KindSubmit:
		return "submit"
	case KindJobDone:
		return "job-done"
	case KindJobNack:
		return "job-nack"
	}
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Message is one unit of inter-place communication.
type Message struct {
	Kind    Kind
	From    int
	To      int
	Seq     uint64 // request/response correlation
	Payload []byte
}

// ErrClosed is returned by Send after the endpoint has been closed.
var ErrClosed = errors.New("comm: endpoint closed")

// ErrPlaceDown is the sentinel for routing to a place whose connection has
// failed. Match with errors.Is; the concrete error is a *PlaceDownError
// carrying the place id.
var ErrPlaceDown = errors.New("comm: place down")

// PlaceDownError reports which place was unreachable.
type PlaceDownError struct{ Place int }

func (e *PlaceDownError) Error() string { return fmt.Sprintf("comm: place %d down", e.Place) }

// Is makes errors.Is(err, ErrPlaceDown) match.
func (e *PlaceDownError) Is(target error) bool { return target == ErrPlaceDown }

// ErrBackpressure is the sentinel for a lossy send shed because the
// destination inbox (Mesh) or link queue (TCPMesh) was full. Only steal
// traffic is ever shed — the thief's timeout-and-retry machinery absorbs
// the loss; reliable kinds block instead. Match with errors.Is; the
// concrete error is a *BackpressureError carrying the congested place.
var ErrBackpressure = errors.New("comm: destination queue full")

// BackpressureError reports which destination place was congested.
type BackpressureError struct{ Place int }

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("comm: place %d inbox full, steal message shed", e.Place)
}

// Is makes errors.Is(err, ErrBackpressure) match.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// lossy reports whether injected message loss may apply to k. The steal
// protocol tolerates silent loss (the thief times out and retries), and
// so do heartbeats (the next beat supersedes a lost one); spawn,
// completion, membership announcements, and control traffic must be
// delivered for finish accounting to terminate.
func lossy(k Kind) bool {
	return k == KindStealReq || k == KindStealResp || k == KindHeartbeat
}

// Endpoint is one place's attachment to the transport.
type Endpoint interface {
	// Place returns the place id this endpoint serves.
	Place() int
	// Send routes m (by m.To) to the destination endpoint. When the
	// destination queue is full, lossy steal traffic is shed with a typed
	// ErrBackpressure (the thief's retry machinery recovers) and reliable
	// traffic may block until space frees up; either case increments the
	// Backpressure counter. Sends to a failed place return ErrPlaceDown.
	Send(m Message) error
	// Inbox delivers messages addressed to this place. The channel closes
	// when the endpoint is closed.
	Inbox() <-chan Message
	// Close detaches the endpoint and closes its inbox.
	Close() error
}

// Mesh is an in-process transport connecting n places through buffered
// channels. It is safe for concurrent use.
type Mesh struct {
	counters *metrics.Counters
	inj      *fault.Injector // nil-safe; set via InjectFaults
	mu       sync.Mutex
	inboxes  []chan Message
	closed   []bool
}

// NewMesh returns a mesh for places endpoints with per-inbox buffer size
// buf. Counters may be nil to disable accounting.
func NewMesh(places, buf int, counters *metrics.Counters) *Mesh {
	if places <= 0 {
		panic(fmt.Sprintf("comm: NewMesh places=%d", places))
	}
	if buf < 1 {
		buf = 1
	}
	m := &Mesh{
		counters: counters,
		inboxes:  make([]chan Message, places),
		closed:   make([]bool, places),
	}
	for i := range m.inboxes {
		m.inboxes[i] = make(chan Message, buf)
	}
	return m
}

// Endpoint returns place p's attachment.
func (m *Mesh) Endpoint(p int) Endpoint {
	if p < 0 || p >= len(m.inboxes) {
		panic(fmt.Sprintf("comm: Endpoint(%d) of %d-place mesh", p, len(m.inboxes)))
	}
	return &meshEndpoint{mesh: m, place: p}
}

// InjectFaults arms the mesh with a fault injector: steal messages may be
// silently dropped (the sender's timeout recovers) and any message may be
// delayed by a latency spike. Call before traffic starts; nil disarms.
func (m *Mesh) InjectFaults(inj *fault.Injector) { m.inj = inj }

func (m *Mesh) send(msg Message) (err error) {
	if msg.To < 0 || msg.To >= len(m.inboxes) {
		return fmt.Errorf("comm: send to invalid place %d", msg.To)
	}
	m.mu.Lock()
	if m.closed[msg.To] || m.closed[msg.From] {
		m.mu.Unlock()
		return ErrClosed
	}
	inbox := m.inboxes[msg.To]
	m.mu.Unlock()

	if msg.From != msg.To {
		if lossy(msg.Kind) && m.inj.Drop(msg.From, msg.To) {
			if m.counters != nil {
				m.counters.DroppedMessages.Add(1)
			}
			return nil // lost in transit; delivery is the sender's problem
		}
		if ns := m.inj.SpikeNS(msg.From, msg.To); ns > 0 {
			time.Sleep(time.Duration(ns))
		}
	}
	if m.counters != nil && msg.From != msg.To {
		m.counters.Messages.Add(1)
		m.counters.BytesTransferred.Add(int64(len(msg.Payload)))
	}
	// The inbox may be closed concurrently by the receiver's Close; treat
	// the resulting send-on-closed-channel panic as ErrClosed rather than
	// crashing the sender.
	defer func() {
		if recover() != nil {
			err = ErrClosed
		}
	}()
	select {
	case inbox <- msg:
		return nil
	default:
	}
	// Inbox full. Historically this blocked for every kind, which silently
	// turned a congested steal victim into a stalled thief; now congestion
	// is counted, lossy traffic is shed with a typed error, and only
	// traffic that must be delivered (spawn, completion, control) blocks.
	if m.counters != nil {
		m.counters.Backpressure.Add(1)
	}
	if lossy(msg.Kind) {
		return &BackpressureError{Place: msg.To}
	}
	inbox <- msg
	return nil
}

type meshEndpoint struct {
	mesh  *Mesh
	place int
}

func (e *meshEndpoint) Place() int { return e.place }

func (e *meshEndpoint) Send(m Message) error {
	m.From = e.place
	return e.mesh.send(m)
}

func (e *meshEndpoint) Inbox() <-chan Message { return e.mesh.inboxes[e.place] }

func (e *meshEndpoint) Close() error {
	e.mesh.mu.Lock()
	defer e.mesh.mu.Unlock()
	if !e.mesh.closed[e.place] {
		e.mesh.closed[e.place] = true
		close(e.mesh.inboxes[e.place])
	}
	return nil
}
