// Package flight memoizes computations by key, running each at most once
// across concurrent callers. The sweep result cache and the database
// build's profile and SimPoint caches share it.
package flight

import "sync"

// A Group memoizes values by key; the zero value is ready to use. Callers
// that arrive while a key's computation runs wait for its result. A
// failed computation is forgotten once its waiters have its error, so a
// later caller retries.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the value stored for key, computing it with fn when there is
// none or when enough (nil accepts every value) rejects the stored one,
// which the fresh value then replaces. hit reports that the value or
// error came from another caller's computation.
func (g *Group[K, V]) Do(key K, enough func(V) bool, fn func() (V, error)) (val V, hit bool, err error) {
	for {
		g.mu.Lock()
		c := g.m[key]
		if c != nil {
			g.mu.Unlock()
			<-c.done
			if c.err != nil || enough == nil || enough(c.val) {
				return c.val, true, c.err
			}
			g.mu.Lock()
			if g.m[key] != c { // another caller replaced it first
				g.mu.Unlock()
				continue
			}
		}
		if g.m == nil {
			g.m = make(map[K]*call[V])
		}
		c = &call[V]{done: make(chan struct{})}
		g.m[key] = c
		g.mu.Unlock()
		if c.val, c.err = fn(); c.err != nil {
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
		close(c.done)
		return c.val, false, c.err
	}
}

// Forget drops every stored value.
func (g *Group[K, V]) Forget() {
	g.mu.Lock()
	g.m = nil
	g.mu.Unlock()
}
