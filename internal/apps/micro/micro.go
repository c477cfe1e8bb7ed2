// Package micro implements the five fine-grained applications of the
// paper's granularity study (§VIII-Q2): merge sort (0.12 ms tasks),
// skyline matrix multiplication (0.93 ms), Monte-Carlo estimation of π
// (0.005 ms), matrix chain multiplication (0.09 ms), and random access
// (0.006 ms). Their task granularities sit well below the cost of a
// distributed steal, so DistWS gains nothing — and may lose slightly —
// against X10WS on them, supporting the paper's claim that only tasks
// with significant computation are candidates for distributed stealing.
package micro

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"distws/internal/apps"
	"distws/internal/core"
	"distws/internal/task"
	"distws/internal/trace"
)

func mixU(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unitF(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// flatTrace builds a flat graph of nTasks flexible tasks with the given
// granularity, distributed evenly over the places: the micro apps are
// regular workloads, so there is essentially no imbalance for DistWS to
// repair — only overhead to pay (§VIII-Q2).
func flatTrace(name string, nTasks int, granNS int64, places int, migBytes int) (*trace.Graph, error) {
	b := trace.NewBuilder(name)
	for i := 0; i < nTasks; i++ {
		home := i % places
		b.Root(trace.Task{
			HomeMode: trace.HomeFixed,
			Home:     home,
			CostNS:   granNS,
			Flexible: true,
			MigBytes: migBytes,
			Blocks:   []uint64{uint64(i % 256)},
		})
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	return g, nil
}

// ---------------------------------------------------------------------
// Merge sort — 0.12 ms tasks.

// MergeSort sorts N int32 keys with task-parallel merge sort.
type MergeSort struct {
	N       int
	Seed    int64
	Cutoff  int
	GranNS  int64
	nameStr string
}

// NewMergeSort returns the merge-sort micro app.
func NewMergeSort(n int, seed int64) *MergeSort {
	cutoff := n / 128
	if cutoff < 32 {
		cutoff = 32
	}
	return &MergeSort{N: n, Seed: seed, Cutoff: cutoff, GranNS: 120_000, nameStr: "mergesort"}
}

// Name implements apps.App.
func (m *MergeSort) Name() string { return m.nameStr }

func (m *MergeSort) gen() []int32 {
	out := make([]int32, m.N)
	for i := range out {
		out[i] = int32(mixU(uint64(m.Seed), uint64(i)))
	}
	return out
}

func msort(d []int32, cutoff int) {
	if len(d) <= cutoff {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return
	}
	mid := len(d) / 2
	msort(d[:mid], cutoff)
	msort(d[mid:], cutoff)
	mergeInt32(d, mid)
}

func mergeInt32(d []int32, mid int) {
	tmp := make([]int32, 0, len(d))
	i, j := 0, mid
	for i < mid && j < len(d) {
		if d[i] <= d[j] {
			tmp = append(tmp, d[i])
			i++
		} else {
			tmp = append(tmp, d[j])
			j++
		}
	}
	tmp = append(tmp, d[i:mid]...)
	tmp = append(tmp, d[j:]...)
	copy(d, tmp)
}

func checksumInt32(d []int32) uint64 {
	h := apps.NewFnv()
	step := len(d)/512 + 1
	for i := 0; i < len(d); i += step {
		h.Add(uint64(uint32(d[i])))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1] > d[i] {
			h.Add(0xbad)
		}
	}
	return h.Sum()
}

// Sequential implements apps.App.
func (m *MergeSort) Sequential() uint64 {
	d := m.gen()
	msort(d, m.Cutoff)
	return checksumInt32(d)
}

// Parallel implements apps.App.
func (m *MergeSort) Parallel(rt *core.Runtime) (uint64, error) {
	d := m.gen()
	var rec func(c *core.Ctx, seg []int32)
	rec = func(c *core.Ctx, seg []int32) {
		if len(seg) <= m.Cutoff {
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
			return
		}
		mid := len(seg) / 2
		c.Finish(func(cc *core.Ctx) {
			cc.AsyncAny(cc.Place(), func(c3 *core.Ctx) { rec(c3, seg[:mid]) })
			rec(cc, seg[mid:])
		})
		mergeInt32(seg, mid)
	}
	err := rt.Run(func(ctx *core.Ctx) { rec(ctx, d) })
	if err != nil {
		return 0, fmt.Errorf("mergesort: %w", err)
	}
	return checksumInt32(d), nil
}

// Trace implements apps.App: the merge recursion, calibrated to 0.12 ms.
func (m *MergeSort) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder(m.nameStr)
	var rec func(parent, n int)
	rec = func(parent, n int) {
		if n <= m.Cutoff {
			return
		}
		mid := n / 2
		for _, sz := range []int{mid, n - mid} {
			id := b.Child(parent, trace.Task{
				HomeMode: trace.HomeInherit,
				CostNS:   int64(sz),
				Flexible: true,
				MigBytes: 4 * sz,
			})
			rec(id, sz)
		}
	}
	per := m.N / places
	for p := 0; p < places; p++ {
		root := b.Root(trace.Task{
			HomeMode: trace.HomeFixed, Home: p,
			CostNS: int64(per), Flexible: true, MigBytes: 4 * per,
		})
		rec(root, per)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("mergesort: %w", err)
	}
	if _, err := apps.CalibrateFlexibleGranularity(g, m.GranNS); err != nil {
		return nil, err
	}
	return g, nil
}

// ---------------------------------------------------------------------
// Skyline matrix multiplication — 0.93 ms tasks.

// Skyline multiplies two banded (skyline) matrices row-block-parallel.
type Skyline struct {
	N, Band int
	Seed    int64
	GranNS  int64
}

// NewSkyline returns the skyline matmul micro app.
func NewSkyline(n, band int, seed int64) *Skyline {
	return &Skyline{N: n, Band: band, Seed: seed, GranNS: 930_000}
}

// Name implements apps.App.
func (s *Skyline) Name() string { return "skyline" }

func (s *Skyline) gen() []float64 {
	a := make([]float64, s.N*s.N)
	for i := 0; i < s.N; i++ {
		lo, hi := s.bandOf(i)
		for j := lo; j < hi; j++ {
			a[i*s.N+j] = unitF(mixU(uint64(s.Seed), uint64(i*s.N+j)))
		}
	}
	return a
}

// bandOf returns row i's occupied column interval.
func (s *Skyline) bandOf(i int) (int, int) {
	lo := i - s.Band
	if lo < 0 {
		lo = 0
	}
	hi := i + s.Band + 1
	if hi > s.N {
		hi = s.N
	}
	return lo, hi
}

// mulRow computes row i of A·A into out, returning flop count.
func (s *Skyline) mulRow(a, out []float64, i int) int {
	flops := 0
	lo, hi := s.bandOf(i)
	for j := 0; j < s.N; j++ {
		var acc float64
		for k := lo; k < hi; k++ {
			if a[k*s.N+j] != 0 {
				acc += a[i*s.N+k] * a[k*s.N+j]
				flops++
			}
		}
		out[i*s.N+j] = acc
	}
	return flops
}

func (s *Skyline) checksum(c []float64) uint64 {
	h := apps.NewFnv()
	for i := 0; i < len(c); i += s.N/4 + 1 {
		h.AddFloat(c[i])
	}
	return h.Sum()
}

// Sequential implements apps.App.
func (s *Skyline) Sequential() uint64 {
	a := s.gen()
	out := make([]float64, s.N*s.N)
	for i := 0; i < s.N; i++ {
		s.mulRow(a, out, i)
	}
	return s.checksum(out)
}

// Parallel implements apps.App.
func (s *Skyline) Parallel(rt *core.Runtime) (uint64, error) {
	a := s.gen()
	out := make([]float64, s.N*s.N)
	places := rt.Places()
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for i := 0; i < s.N; i++ {
				i := i
				c.AsyncLoc(i*places/s.N, task.FlexibleLocality, func(*core.Ctx) {
					s.mulRow(a, out, i)
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("skyline: %w", err)
	}
	return s.checksum(out), nil
}

// Trace implements apps.App: one flexible task per row, calibrated.
func (s *Skyline) Trace(places int) (*trace.Graph, error) {
	g, err := flatTrace("skyline", s.N, s.GranNS, places, 8*(2*s.Band+1)*4)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// ---------------------------------------------------------------------
// Monte-Carlo π — 0.005 ms tasks.

// MonteCarloPi estimates π with deterministic quasi-random batches.
type MonteCarloPi struct {
	Samples, Batch int
	Seed           int64
	GranNS         int64
}

// NewMonteCarloPi returns the Monte-Carlo π micro app.
func NewMonteCarloPi(samples, batch int, seed int64) *MonteCarloPi {
	return &MonteCarloPi{Samples: samples, Batch: batch, Seed: seed, GranNS: 5_000}
}

// Name implements apps.App.
func (m *MonteCarloPi) Name() string { return "montecarlo-pi" }

// inside counts batch samples falling inside the unit quarter circle.
func (m *MonteCarloPi) inside(batch int) int {
	n := 0
	base := uint64(batch) * uint64(m.Batch)
	for i := 0; i < m.Batch; i++ {
		h := mixU(uint64(m.Seed), base+uint64(i))
		x := unitF(h)
		y := unitF(mixU(h, 77))
		if x*x+y*y <= 1 {
			n++
		}
	}
	return n
}

func (m *MonteCarloPi) batches() int { return (m.Samples + m.Batch - 1) / m.Batch }

// Sequential implements apps.App.
func (m *MonteCarloPi) Sequential() uint64 {
	total := 0
	for b := 0; b < m.batches(); b++ {
		total += m.inside(b)
	}
	h := apps.NewFnv()
	h.Add(uint64(total))
	return h.Sum()
}

// Parallel implements apps.App.
func (m *MonteCarloPi) Parallel(rt *core.Runtime) (uint64, error) {
	var total atomic.Int64
	places := rt.Places()
	nb := m.batches()
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for b := 0; b < nb; b++ {
				b := b
				c.AsyncAny(b*places/nb, func(*core.Ctx) {
					total.Add(int64(m.inside(b)))
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("montecarlo: %w", err)
	}
	h := apps.NewFnv()
	h.Add(uint64(total.Load()))
	return h.Sum(), nil
}

// Trace implements apps.App.
func (m *MonteCarloPi) Trace(places int) (*trace.Graph, error) {
	return flatTrace("montecarlo-pi", m.batches(), m.GranNS, places, 16)
}

// ---------------------------------------------------------------------
// Matrix chain multiplication — 0.09 ms tasks.

// MatChain solves the matrix-chain-order DP; each cell of a diagonal is
// a task, diagonals are barriers.
type MatChain struct {
	N      int // number of matrices
	Seed   int64
	GranNS int64
}

// NewMatChain returns the matrix-chain micro app.
func NewMatChain(n int, seed int64) *MatChain {
	return &MatChain{N: n, Seed: seed, GranNS: 90_000}
}

// Name implements apps.App.
func (m *MatChain) Name() string { return "matchain" }

func (m *MatChain) dims() []int64 {
	d := make([]int64, m.N+1)
	for i := range d {
		d[i] = 5 + int64(mixU(uint64(m.Seed), uint64(i))%95)
	}
	return d
}

// cell computes dp[i][j] for chain length L given the completed shorter
// diagonals.
func cell(dp [][]int64, d []int64, i, j int) int64 {
	best := int64(math.MaxInt64)
	for k := i; k < j; k++ {
		c := dp[i][k] + dp[k+1][j] + d[i]*d[k+1]*d[j+1]
		if c < best {
			best = c
		}
	}
	return best
}

// Sequential implements apps.App.
func (m *MatChain) Sequential() uint64 {
	d := m.dims()
	dp := make([][]int64, m.N)
	for i := range dp {
		dp[i] = make([]int64, m.N)
	}
	for l := 1; l < m.N; l++ {
		for i := 0; i+l < m.N; i++ {
			dp[i][i+l] = cell(dp, d, i, i+l)
		}
	}
	h := apps.NewFnv()
	h.Add(uint64(dp[0][m.N-1]))
	return h.Sum()
}

// Parallel implements apps.App: one task per cell, one finish per
// diagonal (the DP dependency structure).
func (m *MatChain) Parallel(rt *core.Runtime) (uint64, error) {
	d := m.dims()
	dp := make([][]int64, m.N)
	for i := range dp {
		dp[i] = make([]int64, m.N)
	}
	places := rt.Places()
	err := rt.Run(func(ctx *core.Ctx) {
		for l := 1; l < m.N; l++ {
			l := l
			ctx.Finish(func(c *core.Ctx) {
				for i := 0; i+l < m.N; i++ {
					i := i
					c.AsyncAny(i*places/m.N, func(*core.Ctx) {
						dp[i][i+l] = cell(dp, d, i, i+l)
					})
				}
			})
		}
	})
	if err != nil {
		return 0, fmt.Errorf("matchain: %w", err)
	}
	h := apps.NewFnv()
	h.Add(uint64(dp[0][m.N-1]))
	return h.Sum(), nil
}

// Trace implements apps.App: cells as tasks, chained diagonal
// coordinators as barriers.
func (m *MatChain) Trace(places int) (*trace.Graph, error) {
	b := trace.NewBuilder("matchain")
	prev := -1
	for l := 1; l < m.N; l++ {
		coord := trace.Task{
			HomeMode: trace.HomeFixed, Home: 0,
			CostNS: 1000, Flexible: false,
			BaseMsgs: places - 1, BaseBytes: 8 * (places - 1),
		}
		var cid int
		if prev < 0 {
			cid = b.Root(coord)
		} else {
			cid = b.Child(prev, coord)
		}
		prev = cid
		for i := 0; i+l < m.N; i++ {
			b.Child(cid, trace.Task{
				HomeMode: trace.HomeFixed,
				Home:     i * places / m.N,
				CostNS:   int64(l + 1), // k-loop length
				Flexible: true,
				MigBytes: 16 * (l + 1),
			})
		}
	}
	g, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("matchain: %w", err)
	}
	for i := range g.Tasks {
		if n := len(g.Tasks[i].Children); n > 0 {
			fr := make([]float64, n)
			for j := range fr {
				fr[j] = 1
			}
			g.Tasks[i].SpawnFrac = fr
		}
	}
	if _, err := apps.CalibrateFlexibleGranularity(g, m.GranNS); err != nil {
		return nil, err
	}
	return g, nil
}

// ---------------------------------------------------------------------
// Random access — 0.006 ms tasks.

// RandomAccess performs GUPS-style XOR updates; the table is partitioned
// per place and updates are grouped by target partition, so the result is
// deterministic (XOR commutes within a partition).
type RandomAccess struct {
	TableSize, Updates, Batch int
	Seed                      int64
	GranNS                    int64
}

// NewRandomAccess returns the random-access micro app.
func NewRandomAccess(tableSize, updates, batch int, seed int64) *RandomAccess {
	return &RandomAccess{TableSize: tableSize, Updates: updates, Batch: batch, Seed: seed, GranNS: 6_000}
}

// Name implements apps.App.
func (r *RandomAccess) Name() string { return "randomaccess" }

// apply performs batch b's updates into table (global slice).
func (r *RandomAccess) apply(table []uint64, b int) {
	base := uint64(b) * uint64(r.Batch)
	for i := 0; i < r.Batch && int(base)+i < r.Updates; i++ {
		h := mixU(uint64(r.Seed), base+uint64(i))
		table[h%uint64(r.TableSize)] ^= h
	}
}

func (r *RandomAccess) batches() int { return (r.Updates + r.Batch - 1) / r.Batch }

func checksumTable(table []uint64) uint64 {
	h := apps.NewFnv()
	var x uint64
	for _, v := range table {
		x ^= v
	}
	h.Add(x)
	return h.Sum()
}

// Sequential implements apps.App.
func (r *RandomAccess) Sequential() uint64 {
	table := make([]uint64, r.TableSize)
	for b := 0; b < r.batches(); b++ {
		r.apply(table, b)
	}
	return checksumTable(table)
}

// Parallel implements apps.App: per-place private tables merged by XOR at
// the end (XOR is associative and commutative, so places never touch each
// other's accumulation table). A place's workers share its table, so a
// batch's read-modify-write updates run under the place's lock.
func (r *RandomAccess) Parallel(rt *core.Runtime) (uint64, error) {
	places := rt.Places()
	tables := make([][]uint64, places)
	locks := make([]sync.Mutex, places)
	for p := range tables {
		tables[p] = make([]uint64, r.TableSize)
	}
	nb := r.batches()
	err := rt.Run(func(ctx *core.Ctx) {
		ctx.Finish(func(c *core.Ctx) {
			for b := 0; b < nb; b++ {
				b := b
				home := b * places / nb
				// Sensitive: updates must land in the home partition copy.
				c.Async(home, func(cc *core.Ctx) {
					locks[home].Lock()
					r.apply(tables[home], b)
					locks[home].Unlock()
				})
			}
		})
	})
	if err != nil {
		return 0, fmt.Errorf("randomaccess: %w", err)
	}
	merged := make([]uint64, r.TableSize)
	for p := range tables {
		for i, v := range tables[p] {
			merged[i] ^= v
		}
	}
	return checksumTable(merged), nil
}

// Trace implements apps.App.
func (r *RandomAccess) Trace(places int) (*trace.Graph, error) {
	return flatTrace("randomaccess", r.batches(), r.GranNS, places, 64)
}

// Suite returns the five micro apps at a small default scale.
func Suite(seed int64) []apps.App {
	return []apps.App{
		NewMergeSort(30_000, seed),
		NewSkyline(384, 8, seed),
		NewMonteCarloPi(100_000, 500, seed),
		NewMatChain(48, seed),
		NewRandomAccess(1<<14, 60_000, 400, seed),
	}
}

var (
	_ apps.App = (*MergeSort)(nil)
	_ apps.App = (*Skyline)(nil)
	_ apps.App = (*MonteCarloPi)(nil)
	_ apps.App = (*MatChain)(nil)
	_ apps.App = (*RandomAccess)(nil)
)
