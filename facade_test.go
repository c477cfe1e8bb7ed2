package distws

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/sched"
)

// TestFacadeErrorSurface pins the re-exported typed error: user code
// matches it through the facade alone, without importing internals.
func TestFacadeErrorSurface(t *testing.T) {
	rt, err := New(Config{Cluster: LaptopCluster(), Policy: DistWS})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if err := rt.Run(func(*Ctx) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Run after Shutdown = %v, want distws.ErrShutdown", err)
	}
}

func TestFacadeRunContext(t *testing.T) {
	rt, err := New(Config{Cluster: LaptopCluster(), Policy: DistWS})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.RunContext(ctx, func(*Ctx) { close(ran) }); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	<-ran
	if err := rt.ShutdownContext(ctx); err != nil {
		t.Fatalf("ShutdownContext: %v", err)
	}
}

// TestFacadePolicies runs a Sensitive and a Flexible task under every
// policy the facade exports, which must be every policy, in sched.Kinds'
// order.
func TestFacadePolicies(t *testing.T) {
	policies := []Policy{X10WS, DistWS, DistWSNS, RandomWS, LifelineWS}
	if !slices.Equal(policies, sched.Kinds()) {
		t.Fatalf("facade policies %v, want %v", policies, sched.Kinds())
	}
	for _, p := range policies {
		rt, err := New(Config{Cluster: LaptopCluster(), Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int32
		err = rt.Run(func(ctx *Ctx) {
			ctx.Finish(func(c *Ctx) {
				for _, class := range []Class{Sensitive, Flexible} {
					c.AsyncLoc(c.Places()-1, Locality{Class: class}, func(*Ctx) { ran.Add(1) })
				}
			})
		})
		rt.Shutdown()
		if err != nil || ran.Load() != 2 {
			t.Fatalf("%v: ran %d of 2 tasks, err %v", p, ran.Load(), err)
		}
	}
}
