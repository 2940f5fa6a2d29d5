package store

// Retention under load: GCWith running concurrently with readers and
// writers on the packed layout. The contract is the serve retention
// loop's safety argument — a live server can run GC on a timer while
// it answers store traffic: survivors keep serving (modulo the one
// documented self-heal retry), evicted keys turn into clean misses,
// and the corpus stays verifiable afterwards. Run under -race in CI.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGCUnderLoadPacked(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	st, err := OpenPacked(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	key := func(i int) Key {
		return Key{Hash: fmt.Sprintf("%016x", i+1), Seed: int64(i)}
	}
	const seedEntries = 64
	for i := 0; i < seedEntries; i++ {
		if err := st.Put(key(i), testResult(key(i))); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop     atomic.Bool
		written  atomic.Int64 // highest key index written, exclusive
		hits     atomic.Int64
		misses   atomic.Int64
		failures atomic.Int64
		firstErr atomic.Value
	)
	written.Store(seedEntries)
	fail := func(err error) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, err)
	}

	var wg sync.WaitGroup
	// Writer: keeps appending fresh entries while GC churns segments.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := seedEntries; !stop.Load(); i++ {
			if err := st.Put(key(i), testResult(key(i))); err != nil {
				fail(fmt.Errorf("put %d: %w", i, err))
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	// Readers: every key ever written must either serve or be a clean
	// miss (evicted). An error is a contract violation — the packed
	// layout's ref-retry is supposed to absorb concurrent compaction.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i += 3 {
				n := int(written.Load())
				k := key(i % n)
				res, ok, err := st.Get(k)
				switch {
				case err != nil:
					fail(fmt.Errorf("get %s: %w", k, err))
					return
				case ok && res == nil:
					fail(fmt.Errorf("get %s: ok with nil result", k))
					return
				case ok:
					hits.Add(1)
				default:
					misses.Add(1)
				}
			}
		}(g)
	}
	// Retention: a tight byte budget forces eviction and compaction on
	// every pass, exactly what a serve -gc-every timer does.
	deadline := time.Now().Add(2 * time.Second)
	var gcPasses int
	for time.Now().Before(deadline) && failures.Load() == 0 {
		if _, err := st.GCWith(GCOptions{MaxBytes: 16 << 10}); err != nil {
			fail(fmt.Errorf("gc pass %d: %w", gcPasses, err))
			break
		}
		gcPasses++
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	st.WaitMaintenance()

	if n := failures.Load(); n > 0 {
		t.Fatalf("%d contract violations under gc load (first: %v)", n, firstErr.Load())
	}
	if gcPasses < 2 {
		t.Fatalf("only %d gc passes completed; the test never overlapped gc with traffic", gcPasses)
	}
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Logf("coverage note: %d hits, %d misses (both classes ideally exercised)", hits.Load(), misses.Load())
	}

	// The surviving corpus is intact and still bounded.
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("corpus corrupt after concurrent gc: %+v", rep.Problems)
	}
}
