package comm

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"distws/internal/metrics"
)

// KindHello is the handshake message a spoke sends right after dialing the
// hub; From carries the spoke's place id.
const KindHello Kind = 200

// KindPlaceDown is a synthetic message the hub delivers to its own inbox
// when a spoke's connection fails; From carries the dead place's id. It
// never travels on the wire.
const KindPlaceDown Kind = 201

// tcpConn wraps a net.Conn with binary wire framing (see wire.go) and a
// write lock. Read and write each reuse one scratch buffer, so steady-state
// messaging allocates nothing on either side.
type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte
	wmu  sync.Mutex
	wbuf []byte
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{conn: c, br: bufio.NewReader(c)}
}

func (c *tcpConn) write(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendFrame(c.wbuf[:0], m)
	_, err := c.conn.Write(c.wbuf)
	return err
}

func (c *tcpConn) read() (Message, error) {
	m, buf, err := ReadFrame(c.br, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return Message{}, err
	}
	// The payload aliases the read buffer, which the next read overwrites;
	// hand the consumer a stable copy.
	if len(m.Payload) > 0 {
		m.Payload = append([]byte(nil), m.Payload...)
	}
	return m, nil
}

// Hub is place 0's endpoint in a star-topology TCP transport. Spokes dial
// the hub; the hub routes spoke-to-spoke traffic. Routing through the hub
// doubles the hop count for spoke pairs, which the message counters record
// faithfully.
type Hub struct {
	ln       net.Listener
	places   int
	counters *metrics.Counters

	mu      sync.Mutex
	conns   map[int]*tcpConn
	down    map[int]bool // spokes evicted after a connection failure
	closed  bool
	senders sync.WaitGroup // in-flight deliverLocal sends; see Close

	inbox chan Message
	stop  chan struct{} // closed by Close; unblocks senders on a full inbox
	ready chan struct{} // closed once all spokes have joined
}

// ListenHub starts a hub for a cluster of places places (including the
// hub itself) on addr. It returns immediately; Await blocks until all
// places-1 spokes have completed the handshake.
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
		down:     make(map[int]bool),
		inbox:    make(chan Message, 1024),
		stop:     make(chan struct{}),
		ready:    make(chan struct{}),
	}
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listening address (useful with ":0").
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Await blocks until every spoke has joined. Prefer AwaitTimeout: if a
// spoke never dials (crashed before the handshake), Await blocks forever.
func (h *Hub) Await() { <-h.ready }

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

// AwaitPeers waits until at least n spokes have completed the
// handshake, for clusters whose seat count exceeds the places expected
// at start (client seats, late joiners). AwaitTimeout is the
// full-assembly special case.
func (h *Hub) AwaitPeers(n int, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		h.mu.Lock()
		joined := len(h.conns)
		closed := h.closed
		h.mu.Unlock()
		if joined >= n {
			return nil
		}
		if closed {
			return ErrClosed
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: %d of %d hub spokes joined within %v", joined, n, d)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Down reports whether place p's connection has failed and been evicted.
func (h *Hub) Down(p int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down[p]
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

func (h *Hub) handshake(tc *tcpConn) {
	hello, err := tc.read()
	if err != nil || hello.Kind != KindHello {
		tc.conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed || hello.From <= 0 || hello.From >= h.places ||
		h.conns[hello.From] != nil || h.down[hello.From] {
		// Fail-stop model: an evicted place may not rejoin.
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
	h.readLoop(hello.From, tc)
}

func (h *Hub) readLoop(from int, tc *tcpConn) {
	defer h.evict(from, tc)
	for {
		m, err := tc.read()
		if err != nil {
			return
		}
		if m.To == 0 {
			h.deliverLocal(m)
			continue
		}
		// Spoke-to-spoke traffic transits the hub: forward and count the
		// second hop.
		if err := h.route(m); err != nil {
			continue
		}
	}
}

func (h *Hub) deliverLocal(m Message) {
	// Gate the send on the closed flag so Close can wait out in-flight
	// senders before closing the inbox (close-vs-send is a data race).
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.senders.Add(1)
	h.mu.Unlock()
	defer h.senders.Done()
	select {
	case h.inbox <- m:
	case <-h.stop: // shutdown with a full inbox; the message is moot
	}
}

// evict removes a spoke whose connection failed, so later routes error
// instead of writing into a dead socket, and posts a synthetic
// KindPlaceDown to the hub inbox so the node layer can start recovery.
// No-op during shutdown or if the spoke was already replaced/evicted.
func (h *Hub) evict(place int, tc *tcpConn) {
	h.mu.Lock()
	if h.closed || h.conns[place] != tc {
		h.mu.Unlock()
		return
	}
	delete(h.conns, place)
	h.down[place] = true
	h.mu.Unlock()
	tc.conn.Close()
	h.deliverLocal(Message{Kind: KindPlaceDown, From: place, To: 0})
}

func (h *Hub) route(m Message) error {
	h.mu.Lock()
	tc := h.conns[m.To]
	downDst := h.down[m.To]
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if downDst {
		return &PlaceDownError{Place: m.To}
	}
	if tc == nil {
		return fmt.Errorf("comm: no route to place %d", m.To)
	}
	if h.counters != nil {
		h.counters.Messages.Add(1)
		h.counters.BytesTransferred.Add(int64(len(m.Payload)))
	}
	if err := tc.write(m); err != nil {
		h.evict(m.To, tc)
		return &PlaceDownError{Place: m.To}
	}
	return nil
}

// Place implements Endpoint: the hub is always place 0.
func (h *Hub) Place() int { return 0 }

// Send implements Endpoint.
func (h *Hub) Send(m Message) error {
	m.From = 0
	if m.To == 0 {
		h.deliverLocal(m)
		return nil
	}
	return h.route(m)
}

// Inbox implements Endpoint.
func (h *Hub) Inbox() <-chan Message { return h.inbox }

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
	close(h.stop)
	h.ln.Close()
	for _, tc := range conns {
		tc.conn.Close()
	}
	h.senders.Wait()
	close(h.inbox)
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

// AwaitTimeout implements Node: a spoke is joined the moment its dial and
// handshake succeed, so there is nothing to wait for.
func (s *Spoke) AwaitTimeout(time.Duration) error { return nil }

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

var (
	_ Endpoint = (*Hub)(nil)
	_ Endpoint = (*Spoke)(nil)
)
