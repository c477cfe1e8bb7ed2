package comm

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/fault"
	"distws/internal/metrics"
)

// The link discipline every program runs: a dial makes dialAttempts
// attempts (the first try plus backoff retries), waiting dialBackoff
// after the first failure and doubling per retry; a link queue deeper
// than linkQueue frames counts as backpressure, and heartbeats, the one
// lossy kind, are shed.
const (
	dialAttempts = 5
	dialBackoff  = 50 * time.Millisecond
	linkQueue    = 1024
)

// KindHello is the handshake message a dialer sends first on every
// connection; From carries its place id and, on the mesh, Seq its
// incarnation.
const KindHello Kind = 200

// KindPlaceDown is a synthetic message a TCPMesh posts to its own inbox
// when a peer's link fails; From carries the dead place's id. It never
// travels on the wire.
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

// MeshOptions tunes a TCPMesh node. The zero value is usable.
type MeshOptions struct {
	// Counters receives message/byte/fault accounting; nil disables it.
	Counters *metrics.Counters
	// Listener, when non-nil, is used instead of binding addrs[place] —
	// callers that pre-bind (tests, port-0 setups) inject it here.
	Listener net.Listener
	// Incarnation identifies this process generation of the place,
	// carried in the hello handshake. A restarted place must dial with
	// a strictly higher incarnation than its predecessor to be
	// readmitted by peers that marked it down (see handshake). Zero
	// picks 1.
	Incarnation uint32

	// Only this package's tests set these, to shorten or stall a link;
	// zero picks the constant of the same name.
	dialAttempts int
	dialBackoff  time.Duration
	linkQueue    int
}

func (o MeshOptions) withDefaults() MeshOptions {
	if o.dialAttempts <= 0 {
		o.dialAttempts = dialAttempts
	}
	if o.dialBackoff <= 0 {
		o.dialBackoff = dialBackoff
	}
	if o.linkQueue <= 0 {
		o.linkQueue = linkQueue
	}
	if o.Incarnation == 0 {
		o.Incarnation = 1
	}
	return o
}

// TCPMesh is one place's endpoint in a peer-to-peer TCP transport: every
// place listens on its own address and each ordered place pair gets its
// own connection, dialed lazily the first time the pair exchanges a
// message. Spoke-to-spoke traffic therefore takes one hop where the Hub
// topology takes two — the difference the message counters of Table III
// make visible.
//
// Outbound frames are coalesced per link: a send enqueues the message and
// a single flusher goroutine drains whatever has accumulated into one
// buffer and one conn.Write — under load, many messages per syscall.
//
// Failure model is fail-stop per link with rejoin: a dial that exhausts
// its retries, or a read/write error on an established connection, marks
// the peer down for this node, fails subsequent sends to it with a typed
// *PlaceDownError, and posts a synthetic KindPlaceDown message to the
// local inbox so the protocol layer can start recovery. A down peer is
// not evicted forever: a fresh process of the same place that dials back
// with a strictly higher incarnation in its hello is readmitted — the
// down mark clears, the stale outbound link is discarded so the next
// send dials fresh, and traffic flows again (see handshake). Hellos at
// the old incarnation stay rejected, so a half-dead predecessor cannot
// resurrect itself.
type TCPMesh struct {
	place int
	addrs []string
	opts  MeshOptions
	ln    net.Listener
	start time.Time // wall-clock origin for time-windowed fault injection

	// Atomic because flusher/reader goroutines are already live when the
	// owner arms it (a non-zero place dials place 0 eagerly inside
	// ListenMeshTCP). Loads are nil-safe.
	inj atomic.Pointer[fault.Injector] // set via InjectFaults

	mu       sync.Mutex
	links    map[int]*meshLink // outbound links by peer
	in       map[int]net.Conn  // established inbound connections by peer
	down     map[int]bool      // peers marked down after a link failure
	peerInc  map[int]uint32    // last incarnation seen from each peer's hello
	everSeen map[int]bool      // distinct peers that ever completed an inbound handshake
	closed   bool
	senders  sync.WaitGroup // in-flight deliverLocal sends; see Close

	joined chan struct{} // closed once every other place has handshaked in
	stop   chan struct{} // closed by Close; aborts dial backoff promptly
	inbox  chan Message

	// Coalescing introspection: outbound syscalls vs frames they carried.
	wireWrites, wireFrames int64 // guarded by mu
}

// ListenMeshTCP starts place place of a mesh whose members listen on
// addrs (indexed by place id). The node accepts immediately; outbound
// links are dialed lazily. Every non-zero place eagerly establishes its
// link to place 0 so that place 0's AwaitTimeout and AwaitPeers see the
// cluster assemble without waiting for first data.
func ListenMeshTCP(addrs []string, place int, opts MeshOptions) (*TCPMesh, error) {
	if place < 0 || place >= len(addrs) {
		return nil, fmt.Errorf("comm: mesh place %d of %d addrs", place, len(addrs))
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("comm: mesh needs at least 2 places, have %d", len(addrs))
	}
	opts = opts.withDefaults()
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addrs[place])
		if err != nil {
			return nil, fmt.Errorf("comm: mesh listen %s: %w", addrs[place], err)
		}
	}
	t := &TCPMesh{
		place:    place,
		addrs:    addrs,
		opts:     opts,
		ln:       ln,
		start:    time.Now(),
		links:    make(map[int]*meshLink),
		in:       make(map[int]net.Conn),
		down:     make(map[int]bool),
		peerInc:  make(map[int]uint32),
		everSeen: make(map[int]bool),
		joined:   make(chan struct{}),
		stop:     make(chan struct{}),
		inbox:    make(chan Message, 1024),
	}
	go t.acceptLoop()
	if place != 0 {
		t.link(0).kick() // join place 0 eagerly
	}
	return t, nil
}

// Addr returns this node's listening address (useful with ":0").
func (t *TCPMesh) Addr() string { return t.ln.Addr().String() }

// Place implements Endpoint.
func (t *TCPMesh) Place() int { return t.place }

// InjectFaults arms sends and dials with a fault injector: heartbeats
// may be dropped, any message may suffer a latency spike, and dial
// attempts on a lossy link may fail (exercising the backoff path). Safe
// to call while links are live; nil disarms.
func (t *TCPMesh) InjectFaults(inj *fault.Injector) { t.inj.Store(inj) }

// Down reports whether this node has marked peer p's link as failed.
func (t *TCPMesh) Down(p int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[p]
}

// AwaitTimeout waits for cluster assembly. At place 0 it blocks until
// every other place's eager link has handshaked in, reporting how many
// made it if the deadline passes. At any other place it blocks until this
// node's link to place 0 is established.
func (t *TCPMesh) AwaitTimeout(d time.Duration) error {
	if t.place == 0 {
		select {
		case <-t.joined:
			return nil
		case <-time.After(d):
			t.mu.Lock()
			seen := len(t.everSeen)
			t.mu.Unlock()
			return fmt.Errorf("comm: %d of %d mesh peers joined within %v", seen, len(t.addrs)-1, d)
		}
	}
	l := t.link(0)
	l.kick()
	select {
	case <-l.ready:
		return nil
	case <-l.failed:
		return fmt.Errorf("comm: mesh place %d cannot reach place 0: %w", t.place, l.stickyErr())
	case <-time.After(d):
		return fmt.Errorf("comm: mesh place %d: no link to place 0 within %v", t.place, d)
	}
}

// AwaitPeers waits until each of places has completed an inbound
// handshake, for clusters that assemble incrementally (client seats, late
// joiners provisioned in addrs but not yet started). It names the places
// rather than counting peers: every seat links to place 0 eagerly, so a
// client that dials first must not stand in for a missing one.
// AwaitTimeout is the full-assembly special case.
func (t *TCPMesh) AwaitPeers(places []int, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		t.mu.Lock()
		missing := slices.DeleteFunc(slices.Clone(places), func(p int) bool { return t.everSeen[p] })
		closed := t.closed
		t.mu.Unlock()
		if len(missing) == 0 {
			return nil
		}
		if closed {
			return ErrClosed
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: mesh places %v not joined within %v", missing, d)
		}
		select {
		case <-t.stop:
			return ErrClosed
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// CoalescingStats reports how many outbound conn.Write calls this node
// has issued and how many frames they carried in total. frames/writes > 1
// means batching happened.
func (t *TCPMesh) CoalescingStats() (writes, frames int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wireWrites, t.wireFrames
}

// Send implements Endpoint: one hop, straight to the destination's
// listener, over the lazily dialed link for this ordered pair.
func (t *TCPMesh) Send(m Message) error {
	m.From = t.place
	if m.To < 0 || m.To >= len(t.addrs) {
		return fmt.Errorf("comm: mesh send to invalid place %d", m.To)
	}
	if m.To == t.place {
		t.deliverLocal(m)
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if t.down[m.To] {
		t.mu.Unlock()
		return &PlaceDownError{Place: m.To}
	}
	t.mu.Unlock()
	nowNS := time.Since(t.start).Nanoseconds()
	if t.inj.Load().PartitionedAt(t.place, m.To, nowNS) {
		// An active partition swallows every kind — that is what a
		// network cut does. Reliable protocols recover through their
		// own retry machinery once the partition heals.
		if t.opts.Counters != nil {
			t.opts.Counters.DroppedMessages.Add(1)
		}
		return nil
	}
	if lossy(m.Kind) && t.inj.Load().Drop(t.place, m.To) {
		if t.opts.Counters != nil {
			t.opts.Counters.DroppedMessages.Add(1)
		}
		return nil // a lost heartbeat; the next beat supersedes it
	}
	delay := t.inj.Load().SpikeNS(t.place, m.To) + t.inj.Load().GrayNS(t.place, m.To, nowNS)
	if delay > 0 {
		time.Sleep(time.Duration(delay))
	}
	if t.opts.Counters != nil {
		t.opts.Counters.Messages.Add(1)
		t.opts.Counters.BytesTransferred.Add(int64(len(m.Payload)))
	}
	l := t.link(m.To)
	if t.inj.Load().Duplicate(t.place, m.To) {
		if t.opts.Counters != nil {
			t.opts.Counters.DuplicatedMessages.Add(1)
			t.opts.Counters.Messages.Add(1)
		}
		_ = l.enqueue(m) // the receiver's idempotence absorbs the copy
	}
	return l.enqueue(m)
}

// Inbox implements Endpoint.
func (t *TCPMesh) Inbox() <-chan Message { return t.inbox }

// Close implements Endpoint, tearing down the listener and every link.
func (t *TCPMesh) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	links := t.links
	t.links = map[int]*meshLink{}
	in := t.in
	t.in = map[int]net.Conn{}
	t.mu.Unlock()
	close(t.stop)
	t.ln.Close()
	for _, l := range links {
		l.close()
	}
	for _, c := range in {
		c.Close()
	}
	t.senders.Wait()
	close(t.inbox)
	return nil
}

// link returns (creating on first use) the outbound link to peer.
func (t *TCPMesh) link(peer int) *meshLink {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.links[peer]
	if l == nil {
		l = &meshLink{
			mesh:   t,
			peer:   peer,
			ready:  make(chan struct{}),
			failed: make(chan struct{}),
		}
		t.links[peer] = l
	}
	return l
}

func (t *TCPMesh) deliverLocal(m Message) {
	// Gate the send on the closed flag so Close can wait out in-flight
	// senders before closing the inbox (close-vs-send is a data race).
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.senders.Add(1)
	t.mu.Unlock()
	defer t.senders.Done()
	select {
	case t.inbox <- m:
	case <-t.stop: // shutdown with a full inbox; the message is moot
	}
}

// linkDown evicts peer after a link failure: subsequent sends fail typed,
// the inbound connection (if any) is dropped, and a synthetic
// KindPlaceDown is posted to the local inbox. First failure wins; no-op
// during shutdown.
func (t *TCPMesh) linkDown(peer int) {
	t.mu.Lock()
	if t.closed || t.down[peer] {
		t.mu.Unlock()
		return
	}
	t.down[peer] = true
	l := t.links[peer]
	c := t.in[peer]
	delete(t.in, peer)
	t.mu.Unlock()
	if l != nil {
		l.close()
	}
	if c != nil {
		c.Close()
	}
	t.deliverLocal(Message{Kind: KindPlaceDown, From: peer, To: t.place})
}

func (t *TCPMesh) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handshake(newTCPConn(conn))
	}
}

// handshake reads the dialer's hello and registers the inbound half of
// the pair. The hello's Seq carries the dialer's incarnation: a peer
// marked down may reconnect only with a strictly higher incarnation
// than the one that failed — that un-evicts it (the down mark clears
// and the stale outbound link is discarded so the next send redials).
// Hellos at the old incarnation are rejected, preserving fail-stop
// semantics for the dead process itself.
func (t *TCPMesh) handshake(tc *tcpConn) {
	hello, err := tc.read()
	if err != nil || hello.Kind != KindHello {
		tc.conn.Close()
		return
	}
	peer := hello.From
	inc := uint32(hello.Seq)
	if inc == 0 {
		inc = 1
	}
	var staleLink *meshLink
	t.mu.Lock()
	if t.closed || peer < 0 || peer >= len(t.addrs) || peer == t.place ||
		t.in[peer] != nil {
		t.mu.Unlock()
		tc.conn.Close()
		return
	}
	if t.down[peer] {
		if inc <= t.peerInc[peer] {
			t.mu.Unlock()
			tc.conn.Close()
			return
		}
		delete(t.down, peer)
		staleLink = t.links[peer]
		delete(t.links, peer)
	}
	t.peerInc[peer] = inc
	t.in[peer] = tc.conn
	if !t.everSeen[peer] {
		t.everSeen[peer] = true
		if len(t.everSeen) == len(t.addrs)-1 {
			close(t.joined)
		}
	}
	t.mu.Unlock()
	if staleLink != nil {
		staleLink.close()
	}
	t.readLoop(peer, tc)
}

func (t *TCPMesh) readLoop(peer int, tc *tcpConn) {
	for {
		m, err := tc.read()
		if err != nil {
			// The peer's outbound connection died: under fail-stop that
			// means the peer itself is gone.
			t.linkDown(peer)
			return
		}
		t.deliverLocal(m)
	}
}

// meshLink is the outbound half of one ordered place pair: a frame queue
// drained by at most one flusher goroutine, which owns the dial (lazy,
// with backoff retries) and coalesces queued messages into single writes.
type meshLink struct {
	mesh *TCPMesh
	peer int

	mu       sync.Mutex
	queue    []Message
	flushing bool
	conn     net.Conn
	err      error // sticky failure; always a *PlaceDownError

	ready  chan struct{} // closed once dial + hello succeeded
	failed chan struct{} // closed once the link is sticky-failed
	wbuf   []byte        // flusher-owned coalescing buffer
}

func (l *meshLink) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// enqueue appends m and makes sure a flusher is draining. Beyond the
// configured queue depth, lossy traffic is shed with a typed
// backpressure error; reliable traffic is queued regardless (the protocol
// layer bounds its outstanding work) with the congestion still counted.
func (l *meshLink) enqueue(m Message) error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if len(l.queue) >= l.mesh.opts.linkQueue {
		if c := l.mesh.opts.Counters; c != nil {
			c.Backpressure.Add(1)
		}
		if lossy(m.Kind) {
			l.mu.Unlock()
			return &BackpressureError{Place: l.peer}
		}
	}
	l.queue = append(l.queue, m)
	if !l.flushing {
		l.flushing = true
		go l.flush()
	}
	l.mu.Unlock()
	return nil
}

// kick starts a flusher even with an empty queue, so the link dials and
// handshakes eagerly (used for the join link to place 0).
func (l *meshLink) kick() {
	l.mu.Lock()
	if !l.flushing && l.err == nil {
		l.flushing = true
		go l.flush()
	}
	l.mu.Unlock()
}

// flush drains the queue until it is empty, batching every message that
// accumulated since the last write into one buffer and one conn.Write —
// the per-connection write coalescing that keeps syscall count sublinear
// in message count under load.
func (l *meshLink) flush() {
	if !l.ensureConn() {
		return
	}
	for {
		l.mu.Lock()
		if l.err != nil {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		if len(l.queue) == 0 {
			l.flushing = false
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		conn := l.conn
		l.mu.Unlock()

		l.wbuf = l.wbuf[:0]
		for _, m := range batch {
			l.wbuf = AppendFrame(l.wbuf, m)
		}
		if _, err := conn.Write(l.wbuf); err != nil {
			l.fail(err)
			return
		}
		t := l.mesh
		t.mu.Lock()
		t.wireWrites++
		t.wireFrames += int64(len(batch))
		t.mu.Unlock()
	}
}

// ensureConn dials the peer if this link has no connection yet: bounded
// attempts under doubling backoff, with injected link faults able to
// fail an attempt so chaos plans exercise this path deterministically.
// On success it writes the hello frame that identifies this node to the
// peer's acceptor.
func (l *meshLink) ensureConn() bool {
	l.mu.Lock()
	if l.conn != nil || l.err != nil {
		ok := l.err == nil
		l.mu.Unlock()
		return ok
	}
	l.mu.Unlock()

	t := l.mesh
	var conn net.Conn
	var err error
	backoff := t.opts.dialBackoff
	for attempt := 0; attempt < t.opts.dialAttempts; attempt++ {
		if attempt > 0 {
			if c := t.opts.Counters; c != nil {
				c.Retries.Add(1)
			}
			// Sleeping out the full backoff schedule on a node that is
			// shutting down would leak this flusher for seconds; abort
			// promptly when Close fires instead.
			select {
			case <-t.stop:
				l.fail(fmt.Errorf("comm: mesh closed during dial backoff to place %d", l.peer))
				return false
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if t.inj.Load().Drop(t.place, l.peer) {
			err = fmt.Errorf("comm: injected dial fault to place %d", l.peer)
			if c := t.opts.Counters; c != nil {
				c.DroppedMessages.Add(1)
			}
			continue
		}
		conn, err = net.DialTimeout("tcp", t.addrs[l.peer], 2*time.Second)
		if err == nil {
			break
		}
	}
	if err != nil && conn == nil {
		l.fail(err)
		return false
	}
	hello := AppendFrame(nil, Message{Kind: KindHello, From: t.place, To: l.peer, Seq: uint64(t.opts.Incarnation)})
	if _, werr := conn.Write(hello); werr != nil {
		conn.Close()
		l.fail(werr)
		return false
	}
	l.mu.Lock()
	if l.err != nil {
		// Link was closed while the dial was in flight; discard the
		// connection instead of resurrecting a dead link.
		l.mu.Unlock()
		conn.Close()
		return false
	}
	l.conn = conn
	l.mu.Unlock()
	close(l.ready)
	return true
}

// fail marks the link sticky-failed, drops queued frames (the protocol
// layer's retry machinery re-sends what mattered), and reports the peer
// down to the mesh.
func (l *meshLink) fail(cause error) {
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = &PlaceDownError{Place: l.peer}
	l.queue = nil
	l.flushing = false
	conn := l.conn
	l.conn = nil
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	close(l.failed)
	_ = cause // the typed PlaceDownError is the API; cause is connection noise
	l.mesh.linkDown(l.peer)
}

// close tears the link down during shutdown or eviction without posting
// further notifications.
func (l *meshLink) close() {
	l.mu.Lock()
	alreadyFailed := l.err != nil
	if !alreadyFailed {
		l.err = &PlaceDownError{Place: l.peer}
	}
	l.queue = nil
	l.flushing = false
	conn := l.conn
	l.conn = nil
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if !alreadyFailed {
		close(l.failed)
	}
}

var _ Endpoint = (*TCPMesh)(nil)
