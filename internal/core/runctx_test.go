package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/sched"
)

func TestRunContextCompletes(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 2))
	defer rt.Shutdown()
	var n atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := rt.RunContext(ctx, func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 8; i++ {
				c.AsyncAny(i%2, func(*Ctx) { n.Add(1) })
			}
		})
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if n.Load() != 8 {
		t.Fatalf("executed %d, want 8", n.Load())
	}
}

func TestRunContextCancellation(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	defer rt.Shutdown()

	// Already-cancelled context: nothing is spawned.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := rt.RunContext(pre, func(*Ctx) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatalf("body must not run under a cancelled context")
	}

	// Deadline expiring mid-run: RunContext returns promptly with the
	// context error while the stuck activity keeps draining in background.
	release := make(chan struct{})
	done := make(chan struct{})
	ctx, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	err := rt.RunContext(ctx, func(*Ctx) {
		<-release
		close(done)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext past deadline = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, should be prompt", elapsed)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("abandoned activity never drained")
	}
}

func TestRunAfterShutdownIsErrShutdown(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	rt.Shutdown()
	if err := rt.Run(func(*Ctx) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Run after Shutdown = %v, want ErrShutdown", err)
	}
	if err := rt.RunContext(context.Background(), func(*Ctx) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("RunContext after Shutdown = %v, want ErrShutdown", err)
	}
}

func TestShutdownContext(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.ShutdownContext(ctx); err != nil {
		t.Fatalf("ShutdownContext: %v", err)
	}
	// Idempotent, including after completion.
	if err := rt.ShutdownContext(ctx); err != nil {
		t.Fatalf("second ShutdownContext: %v", err)
	}
}

func TestShutdownContextDeadline(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	block := make(chan struct{})
	started := make(chan struct{})
	go rt.Run(func(*Ctx) { close(started); <-block })
	<-started
	// A worker is pinned inside an activity, so a tight deadline gives up
	// on the wait — but the stop flag is already delivered.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := rt.ShutdownContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ShutdownContext with pinned worker = %v, want DeadlineExceeded", err)
	}
	close(block)
	// With the activity released the remaining workers exit.
	if err := rt.ShutdownContext(context.Background()); err != nil {
		t.Fatalf("follow-up ShutdownContext: %v", err)
	}
}
