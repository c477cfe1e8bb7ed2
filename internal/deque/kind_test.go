package deque

import (
	"strings"
	"sync"
	"testing"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
	}{
		{"mutex", KindMutex},
		{"lock", KindMutex},
		{" Mutex ", KindMutex},
		{"chaselev", KindChaseLev},
		{"chase-lev", KindChaseLev},
		{"lockfree", KindChaseLev},
		{"relaxed", KindRelaxed},
		{"fence-free", KindRelaxed},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseKind(%q) = %v,%v, want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatalf("ParseKind(bogus) should fail")
	} else if !strings.Contains(err.Error(), "mutex, chaselev, relaxed") {
		t.Fatalf("error should list the valid kinds, got %v", err)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Fatalf("registry kind %v not Valid", k)
		}
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%v.String()) = %v,%v", k, got, err)
		}
	}
	if Kind(200).Valid() {
		t.Fatalf("Kind(200) should be invalid")
	}
}

// Every kind behind the factory honours the WorkQueue contract under the
// single-owner discipline: oldest-first steals, owner takes newest-first on
// the strict kinds and oldest-first on the relaxed one, conservation.
func TestNewFactoryContract(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			q := New[int](k)
			for i := 0; i < 100; i++ {
				q.Push(i)
			}
			if q.Len() != 100 {
				t.Fatalf("Len = %d, want 100", q.Len())
			}
			if v, ok := q.Steal(); !ok || v != 0 {
				t.Fatalf("Steal = %d,%v, want 0,true", v, ok)
			}
			for i := 1; i <= 99; i++ {
				want := 100 - i
				if k == KindRelaxed {
					want = i
				}
				v, ok := q.Pop()
				if !ok || v != want {
					t.Fatalf("Pop = %d,%v, want %d,true", v, ok, want)
				}
			}
			if _, ok := q.Pop(); ok {
				t.Fatalf("Pop on empty should report false")
			}
			if _, ok := q.Steal(); ok {
				t.Fatalf("Steal on empty should report false")
			}
		})
	}
}

// Satellite: ChaseLev buffer growth under active thieves, run with -race.
// The owner repeatedly drains and refills so the buffer is forced through
// doublings while three thieves hammer the top; exactly-once must hold
// through every grow.
func TestChaseLevGrowthUnderActiveThieves(t *testing.T) {
	d := NewChaseLev[int]()
	const n = 30000
	taken := make([]bool, n)
	var mu sync.Mutex
	record := func(v int) {
		mu.Lock()
		if taken[v] {
			mu.Unlock()
			t.Errorf("element %d consumed twice", v)
			return
		}
		taken[v] = true
		mu.Unlock()
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					record(v)
					continue
				}
				select {
				case <-stop:
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						record(v)
					}
				default:
				}
			}
		}()
	}
	// Push in bursts with interleaved pops: the live window oscillates
	// through the 8→16→…→4096 growth sizes while thieves race each copy.
	next := 0
	for next < n {
		burst := 512
		if n-next < burst {
			burst = n - next
		}
		for i := 0; i < burst; i++ {
			d.Push(next)
			next++
		}
		for i := 0; i < burst/2; i++ {
			if v, ok := d.Pop(); ok {
				record(v)
			}
		}
	}
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		record(v)
	}
	close(stop)
	wg.Wait()
	for i, ok := range taken {
		if !ok {
			t.Fatalf("element %d lost", i)
		}
	}
}
