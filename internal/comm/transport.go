package comm

import (
	"fmt"
	"strings"
	"time"

	"distws/internal/metrics"
)

// Transport selects how places exchange messages. The zero value is
// TransportInproc, which keeps existing single-process configurations
// working unchanged.
type Transport int

const (
	// TransportInproc connects places through in-process channels (Mesh).
	// It is the only transport core.Runtime accepts directly.
	TransportInproc Transport = iota
	// TransportTCPHub is the star topology: place 0 listens, every other
	// place dials it, and spoke-to-spoke traffic transits the hub (2 hops).
	TransportTCPHub
	// TransportTCPMesh is the peer-to-peer topology: every place listens,
	// links are dialed lazily per ordered pair, and all traffic is 1 hop.
	TransportTCPMesh
)

// String returns the flag spelling of the transport (the inverse of
// ParseTransport).
func (t Transport) String() string {
	switch t {
	case TransportInproc:
		return "inproc"
	case TransportTCPHub:
		return "tcp-hub"
	case TransportTCPMesh:
		return "tcp-mesh"
	}
	return fmt.Sprintf("Transport(%d)", int(t))
}

// ParseTransport resolves a flag string ("inproc", "tcp-hub", "tcp-mesh",
// case-insensitive) to a Transport.
func ParseTransport(s string) (Transport, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "inproc":
		return TransportInproc, nil
	case "tcp-hub":
		return TransportTCPHub, nil
	case "tcp-mesh":
		return TransportTCPMesh, nil
	}
	return 0, fmt.Errorf("comm: unknown transport %q (want inproc, tcp-hub, or tcp-mesh)", s)
}

// Node is one OS process's attachment to a distributed transport, as Open
// returns it: an Endpoint plus the one lifecycle call the daemons make
// whatever the topology. Hub, Spoke, and TCPMesh all implement it.
type Node interface {
	Endpoint
	// AwaitTimeout blocks until this node considers the cluster assembled
	// (topology-specific; see the implementations) or the deadline passes.
	AwaitTimeout(d time.Duration) error
}

// NodeConfig describes one process's seat in a distributed cluster.
type NodeConfig struct {
	// Transport picks the topology. TransportInproc is rejected by Open —
	// in-process meshes are built with NewMesh and shared directly.
	Transport Transport
	// Place is this process's place id in [0, Places).
	Place int
	// Places is the cluster size.
	Places int
	// Addr is the hub address (listen address at place 0, dial target
	// elsewhere). Used by TransportTCPHub only.
	Addr string
	// Addrs lists every place's listen address, indexed by place id. Used
	// by TransportTCPMesh only.
	Addrs []string
	// Counters receives message/byte/fault accounting; nil disables it.
	Counters *metrics.Counters
	// DialAttempts/DialBackoff tune mesh link dialing (see MeshOptions);
	// zero values pick the defaults.
	DialAttempts int
	DialBackoff  time.Duration
	// Incarnation is this process's membership incarnation, carried in
	// the mesh handshake so a restarted place un-evicts its old links
	// (see MeshOptions.Incarnation). Zero means 1.
	Incarnation uint32
}

// Open builds the transport endpoint for cfg's seat in the cluster. The
// caller owns the returned Node and must Close it; AwaitTimeout reports
// when the cluster has assembled.
func Open(cfg NodeConfig) (Node, error) {
	if cfg.Places < 2 {
		return nil, fmt.Errorf("comm: Open with %d places, want >= 2", cfg.Places)
	}
	if cfg.Place < 0 || cfg.Place >= cfg.Places {
		return nil, fmt.Errorf("comm: Open place %d of %d", cfg.Place, cfg.Places)
	}
	switch cfg.Transport {
	case TransportInproc:
		return nil, fmt.Errorf("comm: Open does not build in-process transports; use NewMesh and share its endpoints")
	case TransportTCPHub:
		if cfg.Addr == "" {
			return nil, fmt.Errorf("comm: tcp-hub needs Addr")
		}
		if cfg.Place == 0 {
			return ListenHub(cfg.Addr, cfg.Places, cfg.Counters)
		}
		return DialSpoke(cfg.Addr, cfg.Place, cfg.Counters)
	case TransportTCPMesh:
		if len(cfg.Addrs) != cfg.Places {
			return nil, fmt.Errorf("comm: tcp-mesh needs %d addrs, have %d", cfg.Places, len(cfg.Addrs))
		}
		return ListenMeshTCP(cfg.Addrs, cfg.Place, MeshOptions{
			Counters:     cfg.Counters,
			DialAttempts: cfg.DialAttempts,
			DialBackoff:  cfg.DialBackoff,
			Incarnation:  cfg.Incarnation,
		})
	}
	return nil, fmt.Errorf("comm: unknown transport %v", cfg.Transport)
}

var (
	_ Node = (*Hub)(nil)
	_ Node = (*Spoke)(nil)
	_ Node = (*TCPMesh)(nil)
)
