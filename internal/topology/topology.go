// Package topology describes the cluster a run executes on — place and
// worker counts plus an interconnect/overhead cost model — for both the
// real runtime (which uses it for accounting) and the discrete-event
// simulator (which uses it to advance virtual time).
//
// The default model is calibrated to the paper's platform (§VII): a
// 16-node blade cluster, two quad-core 2 GHz Opterons per node (8 workers
// per place), connected by 10 Gbit/s InfiniBand via MVAPICH2.
package topology

import "fmt"

// Network models the cluster interconnect.
type Network struct {
	// LatencyNS is the one-way latency of a message between two places in
	// nanoseconds. InfiniBand with an MPI layer: a few microseconds.
	LatencyNS int64
	// BytesPerNS is the effective bandwidth. 10 Gbit/s = 1.25 GB/s =
	// 1.25 bytes/ns.
	BytesPerNS float64
	// MsgOverheadBytes is the fixed per-message envelope size (headers,
	// MPI matching info) added to every payload.
	MsgOverheadBytes int
}

// TransferNS returns the virtual time to move payloadBytes between two
// places: one-way latency plus serialization at the modelled bandwidth.
func (n Network) TransferNS(payloadBytes int) int64 {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	bytes := float64(payloadBytes + n.MsgOverheadBytes)
	if n.BytesPerNS <= 0 {
		return n.LatencyNS
	}
	return n.LatencyNS + int64(bytes/n.BytesPerNS)
}

// RoundTripNS returns the time for a request/reply exchange carrying
// reqBytes out and replyBytes back.
func (n Network) RoundTripNS(reqBytes, replyBytes int) int64 {
	return n.TransferNS(reqBytes) + n.TransferNS(replyBytes)
}

// Overheads models the scheduler's fixed software costs. These are the
// knobs behind the paper's observation that DistWS is slightly slower than
// X10WS on a single node (extra deque management and load-status
// exploration) but wins once cross-node steals become possible.
type Overheads struct {
	// DispatchNS: cost to pop a task from a private deque and start it.
	DispatchNS int64
	// SharedDequeNS: extra cost of the lock-guarded shared deque per
	// operation (push, poll, or steal).
	SharedDequeNS int64
	// MapDecisionNS: cost of the Algorithm-1 mapping decision (inspecting
	// place load) paid per flexible task under DistWS and DistWS-NS.
	MapDecisionNS int64
	// LocalStealNS: cost of a steal from a co-located worker's deque.
	LocalStealNS int64
}

// Cluster is a full machine description.
type Cluster struct {
	Places          int
	WorkersPerPlace int
	Net             Network
	Over            Overheads
}

// Workers returns the total worker count (places × workers per place).
func (c Cluster) Workers() int { return c.Places * c.WorkersPerPlace }

// Validate reports a descriptive error for nonsensical configurations.
func (c Cluster) Validate() error {
	if c.Places <= 0 {
		return fmt.Errorf("topology: Places = %d, want > 0", c.Places)
	}
	if c.WorkersPerPlace <= 0 {
		return fmt.Errorf("topology: WorkersPerPlace = %d, want > 0", c.WorkersPerPlace)
	}
	return nil
}

// String renders the cluster compactly, e.g. "16×8 (128 workers)".
func (c Cluster) String() string {
	return fmt.Sprintf("%d×%d (%d workers)", c.Places, c.WorkersPerPlace, c.Workers())
}

// DefaultNetwork models the paper's 10 Gbit/s InfiniBand + MVAPICH2 stack.
func DefaultNetwork() Network {
	return Network{
		LatencyNS:        5_000, // ~5 µs one-way through the MPI layer
		BytesPerNS:       1.25,  // 10 Gbit/s
		MsgOverheadBytes: 64,
	}
}

// DefaultOverheads provides software costs in line with the paper's
// description of steal-operation expense.
func DefaultOverheads() Overheads {
	return Overheads{
		DispatchNS:    200,
		SharedDequeNS: 400,
		MapDecisionNS: 150,
		LocalStealNS:  1_000,
	}
}

// Paper returns the evaluation platform of §VII: 16 places × 8 workers.
func Paper() Cluster {
	return Cluster{
		Places:          16,
		WorkersPerPlace: 8,
		Net:             DefaultNetwork(),
		Over:            DefaultOverheads(),
	}
}

// WithPlaces returns a copy of the cluster scaled to p places, keeping the
// per-place worker count and cost model — the shape of the paper's Fig. 5
// sweep (1, 2, 4, 8, 16 places at X10_NTHREADS=8).
func (c Cluster) WithPlaces(p int) Cluster {
	c.Places = p
	return c
}

// Laptop returns a host-friendly configuration for examples and tests.
func Laptop() Cluster {
	return Cluster{
		Places:          4,
		WorkersPerPlace: 2,
		Net:             DefaultNetwork(),
		Over:            DefaultOverheads(),
	}
}
