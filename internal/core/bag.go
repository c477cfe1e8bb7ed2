package core

import "distws/internal/task"

// Bag spawns a locality-flexible bag of work homed at place home: the
// unit of theft is half a bag, not one task per item (lifeline UTS's
// per-worker bag; synchronisation paid per steal, not per item). The owner
// runs the newest item first; step processes it, appends the children it
// produces to the bag it is handed and returns the bag. Between items,
// when some worker is idle and the running worker has nothing else a
// thief could take, the owner splits off the older half of what remains as
// a new bag at its own place: an ordinary flexible activity, which the
// existing wake and sweep deliver. Each bag run, the first and every
// split, accumulates into its own zero A and hands it to flush once, when
// it ends.
//
// An item counts as one spawned and one executed task; the bag activity
// and its splits count as neither, so spawned equals executed at
// quiescence. A fault plan's AfterTasks counts activities, bags included.
// Bag owns items from the call on: the caller must not touch the slice
// again.
func Bag[T, A any](c *Ctx, home int, items []T, step func(*Ctx, T, []T, *A) []T, flush func(A)) {
	c.checkPlace(home)
	if step == nil || flush == nil {
		panic("core: Bag with nil step or flush")
	}
	if len(items) == 0 {
		return
	}
	c.fin.add(1)
	c.rt.spawn(newBag(c.fin, home, items, step, flush), c.placeID, c.worker)
}

func newBag[T, A any](fin *finish, home int, items []T, step func(*Ctx, T, []T, *A) []T, flush func(A)) *activity {
	return &activity{
		body: func(c *Ctx) { runBag(c, items, step, flush) },
		loc:  task.FlexibleLocality,
		home: home,
		fin:  fin,
		bag:  true,
	}
}

// runBag is one bag run on the worker that took it. The split test reads
// Runtime.idlers once per item, the one word every pusher already loads;
// the queue lengths behind it take the mutex kinds' locks, so they are
// read only while a worker is idle. Requiring every queue a thief could
// take from to be empty leaves at most one split waiting per place.
func runBag[T, A any](c *Ctx, items []T, step func(*Ctx, T, []T, *A) []T, flush func(A)) {
	w, rt := c.worker, c.rt
	var acc A
	var n int64
	defer func() {
		// Before run releases the finish: once Run returns, every item
		// reads as spawned and executed.
		w.stats.spawned.Add(n)
		w.stats.executed.Add(n)
	}()
	for len(items) > 0 {
		if len(items) >= 2 && rt.idlers.Load() != 0 && w.priv.Len() == 0 && w.place.offered() == 0 {
			half := len(items) / 2
			c.fin.add(1)
			rt.spawn(newBag(c.fin, c.placeID, append([]T(nil), items[:half]...), step, flush), c.placeID, w)
			items = items[half:]
		}
		it := items[len(items)-1]
		items = step(c, it, items[:len(items)-1], &acc)
		n++
	}
	flush(acc)
}
