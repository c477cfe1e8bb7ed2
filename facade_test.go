package distws

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFacadeErrorSurface pins the re-exported typed errors: user code
// matches them through the facade alone, without importing internals.
func TestFacadeErrorSurface(t *testing.T) {
	rt, err := New(Config{Cluster: LaptopCluster(), Policy: DistWS})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	if err := rt.Run(func(*Ctx) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Run after Shutdown = %v, want distws.ErrShutdown", err)
	}

	var pde *PlaceDownError
	if !errors.As(error(&PlaceDownError{Place: 3}), &pde) || pde.Place != 3 {
		t.Fatalf("PlaceDownError should round-trip through errors.As")
	}
	if !errors.Is(&PlaceDownError{Place: 3}, ErrPlaceDown) {
		t.Fatalf("PlaceDownError should match ErrPlaceDown")
	}
	if !errors.Is(&BackpressureError{Place: 1}, ErrBackpressure) {
		t.Fatalf("BackpressureError should match ErrBackpressure")
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

func TestFacadeTransport(t *testing.T) {
	tr, err := ParseTransport("tcp-mesh")
	if err != nil || tr != TransportTCPMesh {
		t.Fatalf("ParseTransport(tcp-mesh) = %v, %v", tr, err)
	}
	if TransportInproc.String() != "inproc" {
		t.Fatalf("zero-value transport should spell inproc")
	}
}
