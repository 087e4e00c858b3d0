package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoComputesOnce: concurrent callers of one key share one computation.
func TestDoComputesOnce(t *testing.T) {
	var g Group[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := g.Do("k", nil, func() (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if v, hit, _ := g.Do("k", nil, nil); v != 7 || !hit {
		t.Fatalf("stored value %d, hit %v", v, hit)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d computations, want 1", n)
	}
}

// TestDoRetriesErrorsAndReplacesRejected: a failure is not stored, and a
// stored value enough rejects is recomputed and replaced.
func TestDoRetriesErrorsAndReplacesRejected(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	if _, hit, err := g.Do("k", nil, func() (int, error) { return 0, boom }); hit || err != boom {
		t.Fatalf("first call: hit %v, err %v", hit, err)
	}
	if v, hit, _ := g.Do("k", nil, func() (int, error) { return 2, nil }); v != 2 || hit {
		t.Fatalf("retry: %d, hit %v", v, hit)
	}
	atLeast3 := func(v int) bool { return v >= 3 }
	if v, hit, _ := g.Do("k", atLeast3, func() (int, error) { return 4, nil }); v != 4 || hit {
		t.Fatalf("replacement: %d, hit %v", v, hit)
	}
	if v, hit, _ := g.Do("k", atLeast3, nil); v != 4 || !hit {
		t.Fatalf("after replacement: %d, hit %v", v, hit)
	}
	g.Forget()
	if v, hit, _ := g.Do("k", nil, func() (int, error) { return 5, nil }); v != 5 || hit {
		t.Fatalf("after Forget: %d, hit %v", v, hit)
	}
}
