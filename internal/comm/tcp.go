package comm

import (
	"fmt"
	"net"
	"sync"
	"time"

	"distws/internal/metrics"
)

// Hub is the relay at the centre of a star-topology TCP transport. Spokes
// dial the hub, and the hub forwards each spoke's frames to the spoke they
// address. Routing through the hub doubles the hop count for spoke pairs,
// which the message counters record faithfully. The hub is not a place:
// a frame addressed to place 0, or to a place with no spoke, is dropped.
// No command runs on it: processes talk over TCPMesh, and the hub is the
// two-hop baseline of the benchmark's round-trip probe.
type Hub struct {
	ln       net.Listener
	places   int
	counters *metrics.Counters

	mu     sync.Mutex
	conns  map[int]*tcpConn
	closed bool
	ready  chan struct{} // closed once all spokes have joined
}

// ListenHub starts a hub for a cluster of places places (including the
// hub itself) on addr. It returns immediately; AwaitTimeout waits for all
// places-1 spokes to complete the handshake.
func ListenHub(addr string, places int, counters *metrics.Counters) (*Hub, error) {
	if places < 1 {
		return nil, fmt.Errorf("comm: ListenHub places=%d", places)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: hub listen: %w", err)
	}
	h := &Hub{
		ln:       ln,
		places:   places,
		counters: counters,
		conns:    make(map[int]*tcpConn),
		ready:    make(chan struct{}),
	}
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listening address (useful with ":0").
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// AwaitTimeout waits up to d for every spoke to join, reporting how many
// made it if the deadline passes.
func (h *Hub) AwaitTimeout(d time.Duration) error {
	select {
	case <-h.ready:
		return nil
	case <-time.After(d):
		h.mu.Lock()
		joined := len(h.conns)
		h.mu.Unlock()
		return fmt.Errorf("comm: %d of %d spokes joined within %v", joined, h.places-1, d)
	}
}

func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go h.handshake(newTCPConn(conn))
	}
}

// handshake registers a spoke by its hello. A place keeps its slot for the
// hub's lifetime, so a second hello for it, from a duplicate or a
// restarted spoke, is refused.
func (h *Hub) handshake(tc *tcpConn) {
	hello, err := tc.read()
	if err != nil || hello.Kind != KindHello {
		tc.conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed || hello.From <= 0 || hello.From >= h.places || h.conns[hello.From] != nil {
		h.mu.Unlock()
		tc.conn.Close()
		return
	}
	h.conns[hello.From] = tc
	joined := len(h.conns)
	h.mu.Unlock()
	if joined == h.places-1 {
		close(h.ready)
	}
	h.readLoop(tc)
}

func (h *Hub) readLoop(tc *tcpConn) {
	defer tc.conn.Close()
	for {
		m, err := tc.read()
		if err != nil {
			return
		}
		h.route(m)
	}
}

// route forwards m to the spoke it addresses and counts the second hop.
func (h *Hub) route(m Message) {
	h.mu.Lock()
	tc := h.conns[m.To]
	h.mu.Unlock()
	if tc == nil {
		return
	}
	if h.counters != nil {
		h.counters.Messages.Add(1)
		h.counters.BytesTransferred.Add(int64(len(m.Payload)))
	}
	tc.write(m) // a dead spoke's frames are lost, as the star has no recovery
}

// Close shuts the hub down, closing every spoke connection.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	conns := h.conns
	h.conns = map[int]*tcpConn{}
	h.mu.Unlock()
	h.ln.Close()
	for _, tc := range conns {
		tc.conn.Close()
	}
	return nil
}

// Spoke is a non-hub place's endpoint in the star transport.
type Spoke struct {
	place    int
	tc       *tcpConn
	counters *metrics.Counters
	inbox    chan Message
	once     sync.Once
}

// DialSpoke connects place (must be > 0) to the hub at addr.
func DialSpoke(addr string, place int, counters *metrics.Counters) (*Spoke, error) {
	if place <= 0 {
		return nil, fmt.Errorf("comm: DialSpoke place=%d, want > 0", place)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: dialing hub %s: %w", addr, err)
	}
	s := &Spoke{
		place:    place,
		tc:       newTCPConn(conn),
		counters: counters,
		inbox:    make(chan Message, 1024),
	}
	if err := s.tc.write(Message{Kind: KindHello, From: place}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("comm: hello to hub: %w", err)
	}
	go s.readLoop()
	return s, nil
}

func (s *Spoke) readLoop() {
	defer s.closeInbox()
	for {
		m, err := s.tc.read()
		if err != nil {
			return
		}
		s.inbox <- m
	}
}

func (s *Spoke) closeInbox() {
	s.once.Do(func() { close(s.inbox) })
}

// Place implements Endpoint.
func (s *Spoke) Place() int { return s.place }

// Send implements Endpoint. All traffic goes via the hub.
func (s *Spoke) Send(m Message) error {
	m.From = s.place
	if s.counters != nil {
		s.counters.Messages.Add(1)
		s.counters.BytesTransferred.Add(int64(len(m.Payload)))
	}
	if err := s.tc.write(m); err != nil {
		return fmt.Errorf("comm: spoke %d send: %w", s.place, err)
	}
	return nil
}

// Inbox implements Endpoint.
func (s *Spoke) Inbox() <-chan Message { return s.inbox }

// Close implements Endpoint.
func (s *Spoke) Close() error {
	return s.tc.conn.Close() // readLoop will close the inbox
}

var _ Endpoint = (*Spoke)(nil)
