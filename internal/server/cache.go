package server

import (
	"container/list"
	"context"
	"sync"
)

// flightCache is an LRU cache with singleflight semantics. Every producer
// behind it is deterministic — the same key always produces the same value —
// so hits are exact and concurrent identical requests can safely share one
// execution. The daemon keeps three: canonical response bytes (the serving
// ladder), measurement sets (collection batching) and analysis internals
// (the memo define, explain and presets read).
type flightCache[V any] struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight[V]
}

type cacheEntry[V any] struct {
	key string
	val V
}

// flight is one in-progress computation that concurrent identical requests
// wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightCache[V any](max int) *flightCache[V] {
	return &flightCache[V]{
		max:     max,
		ll:      list.New(),
		items:   map[string]*list.Element{},
		flights: map[string]*flight[V]{},
	}
}

// do returns the cached value for key, or runs fn once to produce it.
// Concurrent calls with the same key wait for the first caller's fn (their
// own context still applies while waiting). shared reports that the value
// came from the cache or from joining another caller's flight — fn ran once
// for many requests. Errors are not cached; the next call retries.
func (c *flightCache[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*cacheEntry[V]).val
		c.mu.Unlock()
		return val, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err == nil, f.err
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insert(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// insert adds a value and evicts from the LRU tail past capacity. Caller
// holds c.mu.
func (c *flightCache[V]) insert(key string, val V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry[V]).key)
	}
}

// len reports the number of cached entries.
func (c *flightCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
