package server

import (
	"context"
	"net/http"
)

// Cache sources reported in the X-Eventlens-Cache header.
const (
	srcHit  = "hit"  // served from the in-memory cache (or joined a flight)
	srcDisk = "disk" // warmed from the persistent store, zero recomputation
	srcMiss = "miss" // computed now
)

// endpoint is one cached, stored and sharded route. What it serves is a pure
// function of the request, so the route is fully described by a key function
// — the canonical key shared by the memory cache, the persistent store and
// the shard ring — and a compute function returning the canonical response
// bytes. Equal keys mean equal bytes on every layer and every replica.
type endpoint[Req any] struct {
	s       *Server
	key     func(Req) (string, error)
	compute func(context.Context, Req) ([]byte, error)
}

// ServeHTTP decodes the request, relays it to the key's owner in a sharded
// tier, and otherwise serves it through the ladder.
func (e endpoint[Req]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req Req
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	key, err := e.key(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	if e.s.forwardToOwner(w, r, key, req) {
		return
	}
	body, src, err := e.fetch(r.Context(), key, req, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("X-Eventlens-Cache", src)
	writeBody(w, http.StatusOK, body)
}

// get is the ladder for callers inside the daemon (jobs, and the routes
// reading analysis internals), which are never forwarded.
func (e endpoint[Req]) get(ctx context.Context, req Req, gated bool) ([]byte, error) {
	key, err := e.key(req)
	if err != nil {
		return nil, err
	}
	body, _, err := e.fetch(ctx, key, req, gated)
	return body, err
}

// fetch is the serving ladder: the in-memory cache (joining an identical
// computation in flight), then the persistent store, then admission control,
// then compute, publishing fresh bytes to the store. gated requests pass
// admission control before computing; job workers are bounded by their pool
// already and pass gated=false. src names the layer that answered.
func (e endpoint[Req]) fetch(ctx context.Context, key string, req Req, gated bool) (body []byte, src string, err error) {
	s := e.s
	src = srcHit // stays "hit" when the cache or a joined flight serves it
	body, shared, err := s.cache.do(ctx, key, func() ([]byte, error) {
		s.cacheMisses.Inc()
		if payload, ok := s.storeGet(key); ok {
			src = srcDisk
			return payload, nil
		}
		src = srcMiss
		if gated {
			release, err := s.admitSync()
			if err != nil {
				return nil, err
			}
			defer release()
		}
		payload, err := e.compute(ctx, req)
		if err != nil {
			return nil, err
		}
		s.storePut(key, payload)
		return payload, nil
	})
	if shared {
		s.cacheHits.Inc()
	}
	return body, src, err
}
