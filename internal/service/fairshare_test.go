package service

import "testing"

// push enqueues n unit jobs for a tenant.
func push(f *FairShare, tenant uint32, n int) {
	for i := 0; i < n; i++ {
		push1(f, tenant, 0)
	}
}

func push1(f *FairShare, tenant uint32, prio uint8) {
	f.Push(tenant, Item{Job: Job{Tenant: tenant, Priority: prio}})
}

// TestFairShareWeightedSplit pins the saturation contract the service
// advertises: with every tenant backlogged, each receives its weight's
// proportion of dispatches, never deviating by more than 10%.
func TestFairShareWeightedSplit(t *testing.T) {
	weights := map[uint32]int{1: 1, 2: 3, 3: 4}
	f := NewFairShare(1, weights)
	const per = 400
	for id := range weights {
		push(f, id, per)
	}
	// Count shares over a window in which every tenant stays backlogged.
	const window = 320 // < per: nobody drains inside the window
	counts := map[uint32]int{}
	for i := 0; i < window; i++ {
		it, ok := f.Pop()
		if !ok {
			t.Fatalf("queue dried up at pop %d", i)
		}
		counts[it.Job.Tenant]++
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for id, w := range weights {
		want := float64(w) / float64(total)
		got := float64(counts[id]) / float64(window)
		if dev := (got - want) / want; dev > 0.10 || dev < -0.10 {
			t.Errorf("tenant %d share %.3f, want %.3f ±10%% (weights %v, counts %v)",
				id, got, want, weights, counts)
		}
	}
}

// TestFairShareStarvationBound pins the DRR starvation bound: a
// backlogged tenant waits at most quantum×(ΣW−w)+1 dispatches between two
// of its own.
func TestFairShareStarvationBound(t *testing.T) {
	weights := map[uint32]int{1: 1, 2: 5, 3: 5}
	const quantum = 1
	f := NewFairShare(quantum, weights)
	for id := range weights {
		push(f, id, 300)
	}
	sumW := 0
	for _, w := range weights {
		sumW += w
	}
	bound := quantum*(sumW-1) + 1 // for tenant 1 (weight 1)
	last := -1
	for i := 0; i < 900; i++ {
		it, ok := f.Pop()
		if !ok {
			break
		}
		if it.Job.Tenant != 1 {
			continue
		}
		if last >= 0 && i-last > bound {
			t.Fatalf("tenant 1 starved for %d dispatches (pops %d..%d), bound %d",
				i-last, last, i, bound)
		}
		last = i
	}
	if last < 0 {
		t.Fatalf("tenant 1 never served")
	}
}

// TestFairSharePriority pins intra-tenant priority order: higher first,
// stable among equals, and never across tenants.
func TestFairSharePriority(t *testing.T) {
	f := NewFairShare(1, map[uint32]int{1: 1})
	for i, prio := range []uint8{0, 2, 1, 2} {
		f.Push(1, Item{Job: Job{Tenant: 1, ID: uint64(i), Priority: prio}})
	}
	var order []uint64
	for {
		it, ok := f.Pop()
		if !ok {
			break
		}
		order = append(order, it.Job.ID)
	}
	want := []uint64{1, 3, 2, 0} // prio 2 (ids 1,3 in arrival order), 1, 0
	if len(order) != len(want) {
		t.Fatalf("popped %d items, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// TestFairShareDrainAll pins the shutdown path: everything queued comes
// back ordered by tenant, and the scheduler resets clean.
func TestFairShareDrainAll(t *testing.T) {
	f := NewFairShare(1, map[uint32]int{5: 1, 2: 1})
	push(f, 5, 2)
	push(f, 2, 3)
	out := f.DrainAll()
	if len(out) != 5 {
		t.Fatalf("drained %d items, want 5", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Job.Tenant < out[i-1].Job.Tenant {
			t.Fatalf("drain not tenant-ordered: %v then %v", out[i-1].Job.Tenant, out[i].Job.Tenant)
		}
	}
	for id, q := range f.queues {
		if len(q.items) != 0 {
			t.Fatalf("tenant %d holds %d items after DrainAll", id, len(q.items))
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatalf("Pop succeeded after DrainAll")
	}
	// The scheduler is reusable after a drain.
	push(f, 5, 1)
	if it, ok := f.Pop(); !ok || it.Job.Tenant != 5 {
		t.Fatalf("post-drain pop = %+v, %v", it, ok)
	}
}
