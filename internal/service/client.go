package service

import (
	"context"
	"fmt"
	"sync"

	"distws/internal/comm"
)

// Client is one tenant-side session with a service front door: it owns a
// client seat on the transport (place id >= the cluster's compute size),
// streams job submissions to the server place, and routes replies back to
// whoever asked. Safe for concurrent use; the receive loop starts on
// construction and ends when the node's inbox closes.
type Client struct {
	node   comm.Endpoint
	server int

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Reply
	done    chan struct{}
}

// NewClient wraps an attached comm node (already Open-ed on a client
// seat) talking to the front door at server. It spawns the receive loop.
func NewClient(node comm.Endpoint, server int) *Client {
	c := &Client{
		node:    node,
		server:  server,
		pending: make(map[uint64]chan Reply),
		done:    make(chan struct{}),
	}
	go c.recv()
	return c
}

// recv routes replies to their waiting calls until the inbox closes.
func (c *Client) recv() {
	defer close(c.done)
	for m := range c.node.Inbox() {
		if m.Kind != comm.KindJobDone && m.Kind != comm.KindJobNack {
			continue
		}
		r, err := DecodeReply(m.Payload)
		if err != nil {
			continue // a malformed reply orphans one call; its ctx bounds the wait
		}
		r.Result = append([]byte(nil), r.Result...) // outlive the inbox buffer
		c.mu.Lock()
		ch := c.pending[r.ID]
		delete(c.pending, r.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
}

// Submit streams one job to the server and registers a reply channel.
// The job's ID field is assigned here (client-scoped). The returned
// channel receives exactly one Reply — a completion (Code OK) or a nack.
func (c *Client) Submit(j Job) (<-chan Reply, error) {
	ch := make(chan Reply, 1)
	c.mu.Lock()
	c.nextID++
	j.ID = c.nextID
	c.pending[j.ID] = ch
	c.mu.Unlock()
	err := c.node.Send(comm.Message{
		Kind:    comm.KindSubmit,
		To:      c.server,
		Seq:     j.ID,
		Payload: AppendJob(nil, j),
	})
	if err != nil {
		c.mu.Lock()
		delete(c.pending, j.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("service: submit job %d: %w", j.ID, err)
	}
	return ch, nil
}

// Call submits a job and blocks for its reply (RPC convenience over
// Submit). A nack is returned as a Reply, not an error; err is reserved
// for transport failures and ctx expiry.
func (c *Client) Call(ctx context.Context, j Job) (Reply, error) {
	ch, err := c.Submit(j)
	if err != nil {
		return Reply{}, err
	}
	select {
	case r := <-ch:
		return r, nil
	case <-c.done:
		return Reply{}, fmt.Errorf("service: connection closed awaiting job reply")
	case <-ctx.Done():
		return Reply{}, ctx.Err()
	}
}

// Done is closed when the receive loop exits (transport closed).
func (c *Client) Done() <-chan struct{} { return c.done }
