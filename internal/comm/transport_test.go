package comm

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestParseTransport(t *testing.T) {
	cases := []struct {
		in   string
		want Transport
	}{
		{"tcp-hub", TransportTCPHub},
		{"tcp-mesh", TransportTCPMesh},
		{" TCP-Mesh ", TransportTCPMesh},
	}
	for _, c := range cases {
		got, err := ParseTransport(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseTransport(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		// String is the inverse spelling.
		if rt, err := ParseTransport(c.want.String()); err != nil || rt != c.want {
			t.Fatalf("round trip of %v via %q failed: %v, %v", c.want, c.want.String(), rt, err)
		}
	}
	// In-process places share a Mesh; no flag spelling names one.
	for _, in := range []string{"inproc", "carrier-pigeon"} {
		_, err := ParseTransport(in)
		if err == nil || !strings.Contains(err.Error(), "tcp-hub or tcp-mesh") {
			t.Fatalf("ParseTransport(%q) = %v, want an error naming tcp-hub and tcp-mesh", in, err)
		}
	}
	if s := Transport(42).String(); s == "" {
		t.Fatalf("out-of-range transport should still print")
	}
}

func TestOpenValidation(t *testing.T) {
	bad := []NodeConfig{
		{Transport: TransportTCPHub, Place: 0, Places: 1, Addr: "x"},          // too small
		{Transport: TransportTCPHub, Place: 5, Places: 2, Addr: "x"},          // place out of range
		{Transport: TransportTCPHub, Place: 0, Places: 2},                     // no addr
		{Place: 0, Places: 2, Addr: "x"},                                      // no transport
		{Transport: TransportTCPMesh, Place: 0, Places: 3, Addrs: []string{}}, // addrs mismatch
		{Transport: Transport(9), Place: 0, Places: 2, Addr: "x"},             // unknown
	}
	for i, cfg := range bad {
		if _, err := Open(cfg); err == nil {
			t.Fatalf("Open(#%d %+v) should fail", i, cfg)
		}
	}
}

func TestOpenHubTopology(t *testing.T) {
	hub, err := Open(NodeConfig{Transport: TransportTCPHub, Place: 0, Places: 2, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Open hub: %v", err)
	}
	defer hub.Close()
	spoke, err := Open(NodeConfig{Transport: TransportTCPHub, Place: 1, Places: 2, Addr: hub.(*Hub).Addr()})
	if err != nil {
		t.Fatalf("Open spoke: %v", err)
	}
	defer spoke.Close()
	if err := hub.(*Hub).AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := spoke.Send(Message{Kind: KindData, To: 0, Payload: []byte("via-open")}); err != nil {
		t.Fatal(err)
	}
	if got := recvTimeout(t, hub.Inbox()); string(got.Payload) != "via-open" {
		t.Fatalf("hub received %+v", got)
	}
}

func TestOpenMeshTopology(t *testing.T) {
	// Reserve two loopback ports, then hand the addresses to Open. The
	// tiny close-to-listen window is acceptable in a test.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var nodes [2]Endpoint
	for i := range nodes {
		n, err := Open(NodeConfig{Transport: TransportTCPMesh, Place: i, Places: 2, Addrs: addrs})
		if err != nil {
			t.Fatalf("Open mesh %d: %v", i, err)
		}
		nodes[i] = n
		defer n.Close()
	}
	if err := nodes[0].(*TCPMesh).AwaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Send(Message{Kind: KindData, To: 0, Payload: []byte("mesh-open")}); err != nil {
		t.Fatal(err)
	}
	if got := recvTimeout(t, nodes[0].Inbox()); string(got.Payload) != "mesh-open" {
		t.Fatalf("node 0 received %+v", got)
	}
}

// TestAwaitPeersNamesPlaces is the front door's start-up wait on both TCP
// transports: compute places 0..2 and client seat 3, with the client and
// executor 1 up, the client first, and executor 2 not started. A wait
// that counted handshaked seats let the client stand in for executor 2
// and returned with it missing; the wait names the places it needs.
func TestAwaitPeersNamesPlaces(t *testing.T) {
	const seats = 4
	need := []int{1, 2}
	t.Run("tcp-hub", func(t *testing.T) {
		hub, err := ListenHub("127.0.0.1:0", seats, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		dial := func(seat int) {
			s, err := DialSpoke(hub.Addr(), seat, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
		}
		dial(3)
		dial(1)
		if err := hub.AwaitPeers(need, 300*time.Millisecond); err == nil {
			t.Fatal("AwaitPeers returned with executor 2 missing")
		}
		dial(2)
		if err := hub.AwaitPeers(need, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp-mesh", func(t *testing.T) {
		lns := make([]net.Listener, seats)
		addrs := make([]string, seats)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		start := func(seat int) *TCPMesh {
			m, err := ListenMeshTCP(addrs, seat, MeshOptions{Listener: lns[seat]})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}
		front := start(0)
		start(3)
		start(1)
		if err := front.AwaitPeers(need, 500*time.Millisecond); err == nil {
			t.Fatal("AwaitPeers returned with executor 2 missing")
		}
		start(2)
		if err := front.AwaitPeers(need, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
}
