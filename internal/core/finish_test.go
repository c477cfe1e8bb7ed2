package core

import (
	"testing"
	"time"
	"unsafe"

	"distws/internal/sched"
)

func emptyBody(*Ctx) {}

func oneChild(c *Ctx) { c.Async(c.Place(), emptyBody) }

// TestNestedFinishAllocs pins what a nested Finish on a worker costs the
// heap: the scope record alone (its body's Ctx rides inside it, and a
// scope that completes while its worker helps never makes a done
// channel), plus one activity per child.
func TestNestedFinishAllocs(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 1, 1))
	var empty, child float64
	if err := rt.Run(func(c *Ctx) {
		empty = testing.AllocsPerRun(200, func() { c.Finish(emptyBody) })
		child = testing.AllocsPerRun(200, func() { c.Finish(oneChild) })
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if empty != 1 {
		t.Errorf("empty nested Finish allocates %v, want 1", empty)
	}
	if child > 2 {
		t.Errorf("Finish with one Async allocates %v, want at most 2", child)
	}
}

// TestFinishIsOneCacheLine pins the scope record at 64 bytes on 64-bit
// platforms: at 80 it straddled cache lines, and dag-linalg, whose one
// scope's pending count both workers write per task, ran ~4 % slower.
func TestFinishIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes differ off 64-bit platforms")
	}
	if got := unsafe.Sizeof(finish{}); got != 64 {
		t.Fatalf("finish is %d bytes, want 64", got)
	}
}

// TestWorkerlessFinishReturns runs Finish from an At body, where the
// goroutine is borrowed (worker nil) and blocks on the scope's done
// channel instead of helping: once with the scope already complete when
// it waits, once with a child still running at another place.
func TestWorkerlessFinishReturns(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 2, 1))
	ran := 0
	err := runWithin(t, rt, func(c *Ctx) {
		c.At(1, 0, func(c *Ctx) {
			c.Finish(emptyBody)
			c.Finish(func(c *Ctx) {
				c.Async(1, func(*Ctx) {
					time.Sleep(5 * time.Millisecond)
					ran++
				})
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("Finish from an At body returned before its child ran")
	}
}

// TestShutdownReleasesHelpWait parks the only worker in a help-wait on a
// scope that can never complete (a pending count no activity will
// release); Shutdown must still get it out, and Run must report it.
func TestShutdownReleasesHelpWait(t *testing.T) {
	rt := mustNewTuned(t, testConfig(sched.DistWS, 1, 1), 30*time.Second, stealTimeout)
	runErr := make(chan error, 1)
	go func() {
		runErr <- rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) { c.fin.add(1) })
		})
	}()
	w := rt.places[0].workers[0]
	for deadline := time.Now().Add(wakeDeadline); !w.idle(); time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never idled in its help-wait")
		}
	}
	time.Sleep(time.Millisecond) // past the re-check sweep, into the park
	done := make(chan struct{})
	go func() {
		rt.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(wakeDeadline):
		t.Fatalf("Shutdown did not release the worker parked in a help-wait within %v", wakeDeadline)
	}
	if err := <-runErr; err != ErrShutdown {
		t.Fatalf("Run = %v, want ErrShutdown", err)
	}
}

// runWithin is rt.Run under a watchdog: a hang is a failure, not a
// stalled suite.
func runWithin(t *testing.T, rt *Runtime, body func(*Ctx)) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- rt.Run(body) }()
	select {
	case err := <-res:
		return err
	case <-time.After(wakeDeadline):
		t.Fatalf("Run did not return within %v", wakeDeadline)
		return nil
	}
}
