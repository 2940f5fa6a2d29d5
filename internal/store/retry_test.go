package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptBackend pops one scripted error per operation; nil means the
// operation succeeds with fixed data. Exhausting the script succeeds.
type scriptBackend struct {
	mu    sync.Mutex
	errs  []error
	calls int
	data  []byte
}

func (s *scriptBackend) next() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

func (s *scriptBackend) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptBackend) GetObject(context.Context, Key) ([]byte, bool, error) {
	if err := s.next(); err != nil {
		return nil, false, err
	}
	return s.data, true, nil
}

func (s *scriptBackend) PutObject(context.Context, Key, []byte) error { return s.next() }

func (s *scriptBackend) ListObjects(context.Context) ([]Entry, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return []Entry{}, nil
}

var errFlaky = errors.New("connection reset by chaos")

// fastRetry is a policy with sleeps short enough for tests.
func fastRetry(maxAttempts int) RetryOptions {
	return RetryOptions{
		MaxAttempts: maxAttempts,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
}

func TestRetryRecoversFromTransient(t *testing.T) {
	sb := &scriptBackend{errs: []error{errFlaky, errFlaky}, data: []byte("x")}
	rb := NewRetryBackend(sb, fastRetry(3))
	data, ok, err := rb.GetObject(t.Context(), Key{Hash: "h", Seed: 1})
	if err != nil || !ok || string(data) != "x" {
		t.Fatalf("get after transient failures: data=%q ok=%v err=%v", data, ok, err)
	}
	s := rb.Stats()
	if s.Attempts != 3 || s.Retries != 2 || s.Transient != 2 || s.Permanent != 0 {
		t.Fatalf("stats after recovery: %+v", s)
	}
	if s.State != "closed" {
		t.Fatalf("breaker state %q, want closed", s.State)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	sb := &scriptBackend{errs: []error{errFlaky, errFlaky, errFlaky, errFlaky}}
	rb := NewRetryBackend(sb, fastRetry(2))
	if err := rb.PutObject(t.Context(), Key{Hash: "h", Seed: 1}, []byte("x")); !errors.Is(err, errFlaky) {
		t.Fatalf("put error %v, want the transport error", err)
	}
	if sb.callCount() != 2 {
		t.Fatalf("%d attempts, want exactly MaxAttempts=2", sb.callCount())
	}
}

func TestRetryPermanentErrorIsNotRetried(t *testing.T) {
	bad := statusErr(400, "store: remote get: 400 Bad Request")
	sb := &scriptBackend{errs: []error{bad, nil}}
	rb := NewRetryBackend(sb, fastRetry(3))
	_, _, err := rb.GetObject(t.Context(), Key{Hash: "h", Seed: 1})
	if err == nil || !IsPermanentError(err) {
		t.Fatalf("4xx must surface as permanent, got %v", err)
	}
	if sb.callCount() != 1 {
		t.Fatalf("%d attempts for a 4xx, want 1 (no retry)", sb.callCount())
	}
	s := rb.Stats()
	if s.Permanent != 1 || s.Retries != 0 {
		t.Fatalf("stats after 4xx: %+v", s)
	}
}

// breakerBackend always fails with a transient error.
type breakerBackend struct{ scriptBackend }

func (b *breakerBackend) GetObject(context.Context, Key) ([]byte, bool, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return nil, false, errFlaky
}

func TestBreakerOpensFastFailsAndProbes(t *testing.T) {
	sb := &breakerBackend{}
	opts := fastRetry(1)
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = time.Hour
	rb := NewRetryBackend(sb, opts)
	clock := time.Unix(1000, 0)
	rb.now = func() time.Time { return clock }

	key := Key{Hash: "h", Seed: 1}
	for i := 0; i < 2; i++ {
		if _, _, err := rb.GetObject(t.Context(), key); !errors.Is(err, errFlaky) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if s := rb.Stats(); s.State != "open" || s.BreakerOpens != 1 {
		t.Fatalf("after %d consecutive failures: %+v", opts.BreakerThreshold, s)
	}

	// Open circuit: the remote is not contacted at all.
	before := sb.callCount()
	if _, _, err := rb.GetObject(t.Context(), key); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-circuit get: %v, want ErrUnavailable", err)
	}
	if sb.callCount() != before {
		t.Fatal("open circuit still contacted the backend")
	}
	if s := rb.Stats(); s.FastFails != 1 {
		t.Fatalf("stats after fast-fail: %+v", s)
	}

	// Cooldown over: exactly one probe goes through; its failure re-arms
	// the cooldown without a second breaker-open span.
	clock = clock.Add(2 * time.Hour)
	before = sb.callCount()
	if _, _, err := rb.GetObject(t.Context(), key); !errors.Is(err, errFlaky) {
		t.Fatalf("probe: %v", err)
	}
	if sb.callCount() != before+1 {
		t.Fatalf("probe made %d calls, want 1", sb.callCount()-before)
	}
	if s := rb.Stats(); s.State != "open" || s.BreakerOpens != 1 {
		t.Fatalf("after failed probe: %+v", s)
	}

	// A successful probe closes the circuit.
	clock = clock.Add(2 * time.Hour)
	good := &scriptBackend{data: []byte("x")}
	rb.b = good
	if _, _, err := rb.GetObject(t.Context(), key); err != nil {
		t.Fatalf("probe against healthy backend: %v", err)
	}
	if s := rb.Stats(); s.State != "closed" {
		t.Fatalf("after successful probe: %+v", s)
	}
}

func TestRetryHonorsCallerContext(t *testing.T) {
	sb := &breakerBackend{}
	opts := RetryOptions{MaxAttempts: 5, BackoffBase: time.Hour, BackoffMax: time.Hour}
	rb := NewRetryBackend(sb, opts)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := rb.GetObject(ctx, Key{Hash: "h", Seed: 1})
	if err == nil {
		t.Fatal("cancelled get succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled get took %v; backoff ignored the context", time.Since(start))
	}
}

func TestRetryDisableIsSingleAttempt(t *testing.T) {
	sb := &scriptBackend{errs: []error{errFlaky, nil}}
	rb := NewRetryBackend(sb, RetryOptions{Disable: true})
	if _, _, err := rb.GetObject(t.Context(), Key{Hash: "h", Seed: 1}); !errors.Is(err, errFlaky) {
		t.Fatalf("disabled retry: %v, want the raw error", err)
	}
	if sb.callCount() != 1 {
		t.Fatalf("%d attempts with Disable, want 1", sb.callCount())
	}
}

func TestIsPermanentErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errFlaky, false},
		{statusErr(503, "unavailable"), false},
		{statusErr(500, "boom"), false},
		{statusErr(404, "missing"), true}, // 404s are clean misses upstream; as errors they are permanent
		{statusErr(400, "bad"), true},
		{markCorrupt(fmt.Errorf("store: entry x: checksum mismatch")), true},
		{fmt.Errorf("wrapping: %w", markCorrupt(errors.New("inner"))), true},
		{context.DeadlineExceeded, false},
	}
	for i, c := range cases {
		if got := IsPermanentError(c.err); got != c.want {
			t.Errorf("case %d (%v): IsPermanentError=%v, want %v", i, c.err, got, c.want)
		}
	}

	// Tally counts errors by the same classification, whether they
	// come from a failed write (Count) or a failed read (Read), and
	// tallies clean reads as hits and misses — all from many goroutines
	// at once. Callers count only real failures, so the nil case is
	// skipped.
	var (
		tally                Tally
		wg                   sync.WaitGroup
		wantTrans, wantPerms int64
	)
	const wantHits, wantMisses = 3, 2
	for i, c := range cases[1:] {
		if c.want {
			wantPerms++
		} else {
			wantTrans++
		}
		wg.Add(1)
		go func(err error, viaRead bool) {
			defer wg.Done()
			if viaRead {
				tally.Read(false, err)
			} else {
				tally.Count(err)
			}
		}(c.err, i%2 == 0)
	}
	for i := 0; i < wantHits+wantMisses; i++ {
		wg.Add(1)
		go func(ok bool) {
			defer wg.Done()
			tally.Read(ok, nil)
		}(i < wantHits)
	}
	wg.Wait()
	if hits, misses, trans, perms := tally.Counts(); hits != wantHits || misses != wantMisses || trans != wantTrans || perms != wantPerms {
		t.Errorf("Tally = %d hits, %d misses, %d transient, %d permanent; want %d, %d, %d, %d",
			hits, misses, trans, perms, wantHits, wantMisses, wantTrans, wantPerms)
	}
}
