package cache

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

var none struct{}

// value returns a loader yielding v and counting its calls in n.
func value(v int, n *atomic.Int32) func() (*int, error) {
	return func() (*int, error) {
		n.Add(1)
		return &v, nil
	}
}

// mustNotLoad is the loader of a caller that must find the entry.
func mustNotLoad(t *testing.T) func() (*int, error) {
	return func() (*int, error) {
		t.Error("caller loaded instead of joining the entry")
		return nil, errors.New("unexpected load")
	}
}

// blocked starts a load for key that runs until release is called,
// returning its result on the returned channel once it does.
func blocked[C comparable](c *Cache[string, C, *int], key string, check C, v *int, err error) (release func(), done <-chan error) {
	gate := make(chan struct{})
	out := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, got := c.Get(context.Background(), key, check, func() (*int, error) {
			close(started)
			<-gate
			return v, err
		})
		out <- got
	}()
	<-started
	return func() { close(gate) }, out
}

// join starts a caller that waits on key's in-flight entry and returns
// once the caller has found it. The cache must also hold other, a key
// that is not key: the caller's hit moves key in front of it, which is
// how join sees that the caller holds the entry.
func join[C comparable](t *testing.T, ctx context.Context, c *Cache[string, C, *int], key, other string, check C) <-chan result {
	t.Helper()
	if _, err := c.Get(context.Background(), other, check, func() (*int, error) { return new(int), nil }); err != nil {
		t.Fatal(err)
	}
	out := make(chan result, 1)
	go func() {
		v, err := c.Get(ctx, key, check, mustNotLoad(t))
		out <- result{v, err}
	}()
	for c.Keys()[0] != key {
		runtime.Gosched()
	}
	return out
}

type result struct {
	v   *int
	err error
}

func TestBoundAndTouchOrder(t *testing.T) {
	c := New[string, struct{}, *int](3)
	var loads atomic.Int32
	for i, k := range []string{"a", "b", "c"} {
		if _, err := c.Get(context.Background(), k, none, value(i, &loads)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Keys(); !slices.Equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("keys %v, want [c b a]", got)
	}
	if v, _ := c.Get(context.Background(), "a", none, mustNotLoad(t)); *v != 0 {
		t.Fatalf("hit on a returned %d, want 0", *v)
	}
	if _, err := c.Get(context.Background(), "d", none, value(3, &loads)); err != nil {
		t.Fatal(err)
	}
	if got := c.Keys(); !slices.Equal(got, []string{"d", "a", "c"}) {
		t.Fatalf("keys %v, want [d a c]: the touch on a must make b the eviction candidate", got)
	}
	if c.Len() != 3 || c.Has("b") {
		t.Fatalf("len %d, has b %v; want 3 entries without b", c.Len(), c.Has("b"))
	}
	if n := loads.Load(); n != 4 {
		t.Fatalf("%d loads, want 4", n)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New[string, struct{}, *int](4)
	const callers = 16
	var loads, arrived atomic.Int32
	results := make([]*int, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			v, err := c.Get(context.Background(), "k", none, func() (*int, error) {
				loads.Add(1)
				for arrived.Load() < callers {
					runtime.Gosched() // hold the load open while the rest queue
				}
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d loads, want 1", callers, n)
	}
	for i, v := range results {
		if v == nil || v != results[0] {
			t.Fatalf("caller %d got %p, want the shared %p", i, v, results[0])
		}
	}
}

func TestErrorReachesWaitersAndIsNotKept(t *testing.T) {
	c := New[string, struct{}, *int](4)
	boom := errors.New("boom")
	release, leader := blocked(c, "k", none, nil, boom)
	var waiters []<-chan result
	for i := 0; i < 3; i++ {
		waiters = append(waiters, join(t, context.Background(), c, "k", "other", none))
	}
	release()
	if err := <-leader; err != boom {
		t.Fatalf("loader got %v, want boom", err)
	}
	for i, w := range waiters {
		if r := <-w; r.err != boom || r.v != nil {
			t.Fatalf("waiter %d got (%v, %v), want (nil, boom)", i, r.v, r.err)
		}
	}
	if c.Has("k") {
		t.Fatal("failed entry kept")
	}
	var loads atomic.Int32
	if v, err := c.Get(context.Background(), "k", none, value(7, &loads)); err != nil || *v != 7 || loads.Load() != 1 {
		t.Fatalf("next caller after a failure: (%v, %v) with %d loads, want a fresh load of 7", v, err, loads.Load())
	}
}

func TestValidatorMismatchReplaces(t *testing.T) {
	c := New[string, int, *int](4)
	old, fresh := 1, 2
	release, leader := blocked(c, "k", 1, &old, nil)
	waiter := join(t, context.Background(), c, "k", "other", 1)

	var loads atomic.Int32
	v, err := c.Get(context.Background(), "k", 2, value(fresh, &loads))
	if err != nil || *v != fresh || loads.Load() != 1 {
		t.Fatalf("lookup under a new validator: (%v, %v) with %d loads, want a load of %d", v, err, loads.Load(), fresh)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if r := <-waiter; r.err != nil || r.v != &old {
		t.Fatalf("waiter on the replaced entry got (%v, %v), want its own load's value", r.v, r.err)
	}
	if v, _ := c.Get(context.Background(), "k", 2, mustNotLoad(t)); *v != fresh {
		t.Fatalf("hit returned %d, want %d", *v, fresh)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("%d entries, want 2 (k once, other)", n)
	}

	// A replaced entry whose load fails must not remove its successor.
	release, leader = blocked(c, "j", 1, nil, errors.New("late failure"))
	if _, err := c.Get(context.Background(), "j", 2, value(3, &loads)); err != nil {
		t.Fatal(err)
	}
	release()
	<-leader
	if v, _ := c.Get(context.Background(), "j", 2, mustNotLoad(t)); *v != 3 {
		t.Fatalf("successor entry returned %d, want 3", *v)
	}
}

func TestEvictInFlight(t *testing.T) {
	c := New[string, struct{}, *int](2)
	want := 5
	release, leader := blocked(c, "k", none, &want, nil)
	waiter := join(t, context.Background(), c, "k", "other", none)
	var loads atomic.Int32
	if _, err := c.Get(context.Background(), "third", none, value(0, &loads)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), "fourth", none, value(0, &loads)); err != nil {
		t.Fatal(err)
	}
	if c.Has("k") {
		t.Fatal("in-flight entry was not evicted")
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if r := <-waiter; r.err != nil || r.v != &want {
		t.Fatalf("waiter on an evicted entry got (%v, %v), want the load's value", r.v, r.err)
	}
	if c.Has("k") || c.Len() != 2 {
		t.Fatalf("evicted entry came back on settle: keys %v", c.Keys())
	}
	loads.Store(0)
	if _, err := c.Get(context.Background(), "k", none, value(6, &loads)); err != nil || loads.Load() != 1 {
		t.Fatalf("evicted key did not load again: err %v, %d loads", err, loads.Load())
	}
}

func TestCancelledWaiter(t *testing.T) {
	c := New[string, struct{}, *int](4)
	want := 9
	release, leader := blocked(c, "k", none, &want, nil)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := join(t, ctx, c, "k", "other", none)
	cancel()
	if r := <-waiter; !errors.Is(r.err, context.Canceled) || r.v != nil {
		t.Fatalf("cancelled waiter got (%v, %v), want (nil, context.Canceled)", r.v, r.err)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(context.Background(), "k", none, mustNotLoad(t)); err != nil || v != &want {
		t.Fatalf("slot after a cancelled waiter: (%v, %v), want the load's value", v, err)
	}
	// A finished load wins over an ended context.
	if v, err := c.Get(ctx, "k", none, mustNotLoad(t)); err != nil || v != &want {
		t.Fatalf("hit under a cancelled ctx: (%v, %v), want the value", v, err)
	}
}

func TestSweepSkipsLoading(t *testing.T) {
	c := New[string, struct{}, *int](4)
	var loads atomic.Int32
	for i, k := range []string{"a", "b", "c"} {
		if _, err := c.Get(context.Background(), k, none, value(i, &loads)); err != nil {
			t.Fatal(err)
		}
	}
	release, leader := blocked(c, "loading", none, new(int), nil)
	var seen []string
	c.Sweep(func(k string, v *int) bool {
		seen = append(seen, k)
		return *v%2 == 0
	})
	release()
	<-leader
	if !slices.Equal(seen, []string{"c", "b", "a"}) {
		t.Fatalf("sweep saw %v, want the settled entries [c b a]", seen)
	}
	if got := c.Keys(); !slices.Equal(got, []string{"loading", "b"}) {
		t.Fatalf("keys after sweep %v, want [loading b]", got)
	}
}

// refLRU is the reference model FuzzCacheModel checks the cache
// against: a slice of entries, most recent first.
type refLRU struct {
	capacity int
	entries  []refEntry
}

type refEntry struct {
	key, check, val int
}

func (m *refLRU) find(key int) int {
	for i, e := range m.entries {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *refLRU) remove(i int) { m.entries = slices.Delete(m.entries, i, i+1) }

// get models Get: it returns the value a hit would yield and whether
// the lookup hit, and installs val on a miss unless fail is set, in
// which case the new entry is installed, trimmed to capacity and then
// removed again.
func (m *refLRU) get(key, check, val int, fail bool) (int, bool) {
	if i := m.find(key); i >= 0 {
		e := m.entries[i]
		m.remove(i)
		if e.check == check {
			m.entries = slices.Insert(m.entries, 0, e)
			return e.val, true
		}
	}
	m.entries = slices.Insert(m.entries, 0, refEntry{key, check, val})
	if len(m.entries) > m.capacity {
		m.entries = m.entries[:m.capacity]
	}
	if fail {
		m.remove(0)
	}
	return 0, false
}

// FuzzCacheModel decodes the input into a sequence of operations and
// checks the cache against refLRU after every step:
//
//	0 get:     lookup under the key's current validator, loading on a miss
//	1 install: lookup under a new validator, replacing the entry
//	2 fail:    lookup whose load (if it runs) fails
//	3 sweep:   drop every settled entry whose value is divisible by a divisor
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 0, 1, 0, 4, 1, 2, 2, 5, 3, 2})
	f.Add([]byte{1, 2, 7, 2, 7, 0, 7, 1, 7, 3, 3, 0, 7})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0]%4) + 1
		c := New[int, int, int](capacity)
		m := &refLRU{capacity: capacity}
		checks := map[int]int{}
		next := 0
		boom := errors.New("boom")
		for i := 1; i+1 < len(ops); i += 2 {
			op, key := ops[i]%4, int(ops[i+1]%8)
			next++
			switch op {
			case 0, 1, 2:
				if op == 1 {
					checks[key]++
				}
				check := checks[key]
				loaded := false
				got, err := c.Get(context.Background(), key, check, func() (int, error) {
					loaded = true
					if op == 2 {
						return 0, boom
					}
					return next, nil
				})
				want, hit := m.get(key, check, next, op == 2)
				switch {
				case hit == loaded:
					t.Fatalf("step %d: op %d key %d: loaded=%v, model hit=%v", i, op, key, loaded, hit)
				case hit && (err != nil || got != want):
					t.Fatalf("step %d: hit on key %d returned (%d, %v), want %d", i, key, got, err, want)
				case !hit && op == 2 && err != boom:
					t.Fatalf("step %d: failed load returned %v, want boom", i, err)
				case !hit && op != 2 && (err != nil || got != next):
					t.Fatalf("step %d: load returned (%d, %v), want %d", i, got, err, next)
				}
			case 3:
				div := key + 1
				c.Sweep(func(_ int, v int) bool { return v%div == 0 })
				m.entries = slices.DeleteFunc(m.entries, func(e refEntry) bool { return e.val%div == 0 })
			}
			var keys []int
			vals := map[int]int{}
			for _, e := range m.entries {
				keys = append(keys, e.key)
				vals[e.key] = e.val
			}
			if got := c.Keys(); !slices.Equal(got, keys) || c.Len() != len(keys) {
				t.Fatalf("step %d: keys %v (len %d), model %v", i, got, c.Len(), keys)
			}
			c.Sweep(func(k, v int) bool {
				if vals[k] != v {
					t.Fatalf("step %d: key %d holds %d, model %d", i, k, v, vals[k])
				}
				return false
			})
		}
	})
}

var sink *int

func BenchmarkCache(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		type key struct {
			provider string
			day      int
		}
		type version struct {
			hash string
			list *int
		}
		c := New[key, version, *int](64)
		k, check := key{"alexa", 3}, version{hash: "0123456789abcdef0123456789abcdef"}
		if _, err := c.Get(context.Background(), k, check, func() (*int, error) { return new(int), nil }); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A capturing loader built per call, as the callers build
			// theirs: it must not escape to the heap either.
			sink, _ = c.Get(context.Background(), k, check, func() (*int, error) {
				v := k.day
				return &v, nil
			})
		}
	})
}
