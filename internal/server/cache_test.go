package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/perfmetrics/eventlens/internal/par"
)

// waitingCtx reports, by closing waiting, the first time flightCache.do
// consults its Done channel — which do does only while a caller waits on
// another caller's flight. Tests use it to know a joiner has joined before
// they let the flight finish, without sleeping.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// startFlight begins a flight for key whose fn blocks until release is
// closed, and returns once fn is running; the flight's result arrives on
// the returned channel.
func startFlight(c *flightCache[int], key string, val int, release <-chan struct{}) <-chan error {
	running := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		got, shared, err := c.do(context.Background(), key, func() (int, error) {
			close(running)
			<-release
			return val, nil
		})
		if err == nil && (got != val || shared) {
			err = fmt.Errorf("leader got (%d, shared=%v), want (%d, false)", got, shared, val)
		}
		done <- err
	}()
	<-running
	return done
}

func mustNotRun(t *testing.T) func() (int, error) {
	return func() (int, error) {
		t.Error("fn ran for a key that is cached or in flight")
		return 0, errors.New("unexpected run")
	}
}

func TestFlightCacheHit(t *testing.T) {
	c := newFlightCache[int](4)
	ctx := context.Background()
	if v, shared, err := c.do(ctx, "k", func() (int, error) { return 7, nil }); v != 7 || shared || err != nil {
		t.Fatalf("first do = (%d, %v, %v), want (7, false, nil)", v, shared, err)
	}
	errs := make([]error, 16)
	par.For(4, len(errs), func(i int) {
		v, shared, err := c.do(ctx, "k", mustNotRun(t))
		if err == nil && (v != 7 || !shared) {
			err = fmt.Errorf("hit = (%d, shared=%v), want (7, true)", v, shared)
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func TestFlightCacheJoinedFlightIsShared(t *testing.T) {
	// Nothing is cached, so only joining the flight can share its value.
	c := newFlightCache[int](0)
	release := make(chan struct{})
	leader := startFlight(c, "k", 42, release)

	const n = 8
	ctxs := make([]*waitingCtx, n)
	for i := range ctxs {
		ctxs[i] = newWaitingCtx(context.Background())
	}
	joined := make(chan error, 1)
	go func() {
		errs := make([]error, n)
		par.For(n, n, func(i int) {
			v, shared, err := c.do(ctxs[i], "k", mustNotRun(t))
			if err == nil && (v != 42 || !shared) {
				err = fmt.Errorf("joiner %d = (%d, shared=%v), want (42, true)", i, v, shared)
			}
			errs[i] = err
		})
		joined <- errors.Join(errs...)
	}()
	for _, ctx := range ctxs {
		<-ctx.waiting
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if got := c.len(); got != 0 {
		t.Fatalf("max=0 cache holds %d entries", got)
	}
}

func TestFlightCacheErrorNotCached(t *testing.T) {
	c := newFlightCache[int](4)
	ctx := context.Background()
	boom := errors.New("boom")
	var runs atomic.Int32
	fail := func() (int, error) { runs.Add(1); return 0, boom }
	if _, shared, err := c.do(ctx, "k", fail); !errors.Is(err, boom) || shared {
		t.Fatalf("failing do = (shared=%v, %v), want (false, boom)", shared, err)
	}
	if got := c.len(); got != 0 {
		t.Fatalf("error cached: %d entries", got)
	}
	// The next call retries, and its success is cached.
	if v, shared, err := c.do(ctx, "k", func() (int, error) { runs.Add(1); return 3, nil }); v != 3 || shared || err != nil {
		t.Fatalf("retry = (%d, %v, %v), want (3, false, nil)", v, shared, err)
	}
	if v, shared, err := c.do(ctx, "k", mustNotRun(t)); v != 3 || !shared || err != nil {
		t.Fatalf("after retry = (%d, %v, %v), want (3, true, nil)", v, shared, err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2", got)
	}
}

func TestFlightCacheWaiterCancel(t *testing.T) {
	c := newFlightCache[int](4)
	release := make(chan struct{})
	leader := startFlight(c, "k", 5, release)

	// Several waiters join; each one's own context is cancelled mid-flight
	// and it returns at once, while the flight carries on.
	const n = 4
	ctxs := make([]*waitingCtx, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		parent, cancel := context.WithCancel(context.Background())
		ctxs[i], cancels[i] = newWaitingCtx(parent), cancel
	}
	waiters := make(chan error, 1)
	go func() {
		errs := make([]error, n)
		par.For(n, n, func(i int) {
			_, shared, err := c.do(ctxs[i], "k", mustNotRun(t))
			if !errors.Is(err, context.Canceled) || shared {
				errs[i] = fmt.Errorf("waiter %d = (shared=%v, %v), want (false, context.Canceled)", i, shared, err)
			}
		})
		waiters <- errors.Join(errs...)
	}()
	for i, ctx := range ctxs {
		<-ctx.waiting
		cancels[i]()
	}
	if err := <-waiters; err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, shared, err := c.do(context.Background(), "k", mustNotRun(t)); v != 5 || !shared || err != nil {
		t.Fatalf("after flight = (%d, %v, %v), want (5, true, nil)", v, shared, err)
	}
}

func TestFlightCacheLRUEviction(t *testing.T) {
	c := newFlightCache[int](2)
	ctx := context.Background()
	put := func(key string, v int) {
		t.Helper()
		if _, _, err := c.do(ctx, key, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	put("a", 0) // a hit: refreshes a, so b is now least recently used
	put("c", 3)
	if got := c.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	for key, want := range map[string]int{"a": 1, "c": 3} {
		if v, shared, err := c.do(ctx, key, mustNotRun(t)); v != want || !shared || err != nil {
			t.Fatalf("%s = (%d, %v, %v), want (%d, true, nil)", key, v, shared, err, want)
		}
	}
	v, shared, err := c.do(ctx, "b", func() (int, error) { return 20, nil })
	if v != 20 || shared || err != nil {
		t.Fatalf("evicted b = (%d, %v, %v), want a recompute (20, false, nil)", v, shared, err)
	}
}

func TestFlightCacheDisabled(t *testing.T) {
	for _, max := range []int{0, -1} {
		c := newFlightCache[int](max)
		for i := 0; i < 3; i++ {
			v, shared, err := c.do(context.Background(), "k", func() (int, error) { return i, nil })
			if v != i || shared || err != nil {
				t.Fatalf("max=%d call %d = (%d, %v, %v), want a fresh run (%d, false, nil)", max, i, v, shared, err, i)
			}
		}
		if got := c.len(); got != 0 {
			t.Fatalf("max=%d: cache holds %d entries", max, got)
		}
	}
}
