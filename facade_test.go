package distws

import (
	"context"
	"errors"
	"testing"
	"time"
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
