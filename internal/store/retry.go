package store

// The retry layer gives the remote store the same resilience contract
// the distributed tier gave workers: transient failures are retried
// with bounded exponential backoff, permanent failures (4xx, corrupt
// envelopes) are surfaced immediately, and a half-open circuit breaker
// turns a dead share server into one cheap probe per cooldown instead
// of a full timeout per cell. None of it changes output bytes — the
// engine recomputes anything the remote cannot serve — only wall clock
// and the counters.

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Retry/breaker defaults. Conservative enough that a healthy server
// never notices them; aggressive enough that a dead one costs a sweep
// milliseconds per cell, not timeouts.
const (
	defaultMaxAttempts      = 3
	defaultBackoffBase      = 50 * time.Millisecond
	defaultBackoffMax       = 2 * time.Second
	defaultAttemptTimeout   = 10 * time.Second
	defaultBreakerThreshold = 4
	defaultBreakerCooldown  = 3 * time.Second
)

// RetryOptions configures a RetryBackend. Zero values take defaults.
type RetryOptions struct {
	// MaxAttempts bounds HTTP attempts per operation (first try
	// included).
	MaxAttempts int
	// BackoffBase is the sleep before the first retry; it doubles per
	// attempt up to BackoffMax, with ±50% jitter.
	BackoffBase time.Duration
	// BackoffMax caps the per-retry sleep.
	BackoffMax time.Duration
	// AttemptTimeout bounds each individual attempt; the caller's
	// context still bounds the whole operation.
	AttemptTimeout time.Duration
	// BreakerThreshold is the consecutive transient-failure count that
	// opens the circuit.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fast-fails before
	// admitting one half-open probe.
	BreakerCooldown time.Duration
	// Disable bypasses retries and the breaker entirely: one attempt,
	// caller's context only. Tests and fuzz targets use it to avoid
	// backoff sleeps.
	Disable bool
}

// RetryBackend wraps a Backend with retries and a circuit breaker. It
// is itself a Backend, so it slots under BackendStore exactly where the
// raw HTTP backend did.
type RetryBackend struct {
	b    Backend
	opts RetryOptions
	now  func() time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	open     bool
	probing  bool
	reopenAt time.Time
	consec   int // consecutive transient failures
	stats    RemoteStats
}

// NewRetryBackend wraps b with the given retry policy.
func NewRetryBackend(b Backend, opts RetryOptions) *RetryBackend {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = defaultMaxAttempts
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = defaultBackoffBase
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = defaultBackoffMax
	}
	if opts.AttemptTimeout <= 0 {
		opts.AttemptTimeout = defaultAttemptTimeout
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = defaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = defaultBreakerCooldown
	}
	return &RetryBackend{
		b:    b,
		opts: opts,
		now:  time.Now,
		rng:  rand.New(rand.NewSource(1)),
	}
}

// admit gates one attempt through the breaker. It returns probe=true
// when this attempt is the half-open probe, or ErrUnavailable when the
// circuit is open (the remote is not contacted at all).
func (r *RetryBackend) admit() (probe bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return false, nil
	}
	if r.now().Before(r.reopenAt) || r.probing {
		r.stats.FastFails++
		return false, ErrUnavailable
	}
	r.probing = true
	return true, nil
}

// record books one attempt's outcome and drives the breaker state
// machine. Success and permanent errors both close the circuit (the
// server answered; availability is fine), transient failures count
// toward opening it.
func (r *RetryBackend) record(probe bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Attempts++
	if err == nil || IsPermanentError(err) {
		if err != nil {
			r.stats.Permanent++
		}
		r.open = false
		r.probing = false
		r.consec = 0
		return
	}
	r.stats.Transient++
	r.consec++
	if probe {
		// Failed probe: stay open for another cooldown.
		r.probing = false
		r.reopenAt = r.now().Add(r.opts.BreakerCooldown)
		return
	}
	if !r.open && r.consec >= r.opts.BreakerThreshold {
		r.open = true
		r.reopenAt = r.now().Add(r.opts.BreakerCooldown)
		r.stats.BreakerOpens++
	}
}

// sleep waits out one backoff step (exponential with ±50% jitter),
// honoring ctx.
func (r *RetryBackend) sleep(ctx context.Context, attempt int) error {
	d := r.opts.BackoffBase << (attempt - 1)
	if d > r.opts.BackoffMax || d <= 0 {
		d = r.opts.BackoffMax
	}
	r.mu.Lock()
	d = d/2 + time.Duration(r.rng.Int63n(int64(d)))
	r.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs op under the retry policy: per-attempt timeouts, backoff
// between transient failures, breaker gating each attempt.
func (r *RetryBackend) do(ctx context.Context, op func(context.Context) error) error {
	if r.opts.Disable {
		r.mu.Lock()
		r.stats.Attempts++
		r.mu.Unlock()
		return op(ctx)
	}
	var err error
	for attempt := 1; attempt <= r.opts.MaxAttempts; attempt++ {
		probe, aerr := r.admit()
		if aerr != nil {
			return aerr
		}
		if attempt > 1 {
			r.mu.Lock()
			r.stats.Retries++
			r.mu.Unlock()
		}
		actx, cancel := context.WithTimeout(ctx, r.opts.AttemptTimeout)
		err = op(actx)
		cancel()
		r.record(probe, err)
		if err == nil || IsPermanentError(err) {
			return err
		}
		// The caller gave up: its context error wins over ours.
		if ctx.Err() != nil {
			return err
		}
		if attempt < r.opts.MaxAttempts {
			if serr := r.sleep(ctx, attempt); serr != nil {
				return err
			}
		}
	}
	return err
}

// GetObject implements Backend with retries.
func (r *RetryBackend) GetObject(ctx context.Context, key Key) (data []byte, ok bool, err error) {
	err = r.do(ctx, func(actx context.Context) error {
		var oerr error
		data, ok, oerr = r.b.GetObject(actx, key)
		return oerr
	})
	if err != nil {
		return nil, false, err
	}
	return data, ok, nil
}

// PutObject implements Backend with retries.
func (r *RetryBackend) PutObject(ctx context.Context, key Key, data []byte) error {
	return r.do(ctx, func(actx context.Context) error {
		return r.b.PutObject(actx, key, data)
	})
}

// ListObjects implements Backend with retries.
func (r *RetryBackend) ListObjects(ctx context.Context) (out []Entry, err error) {
	err = r.do(ctx, func(actx context.Context) error {
		var oerr error
		out, oerr = r.b.ListObjects(actx)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats snapshots the retry/breaker counters.
func (r *RetryBackend) Stats() RemoteStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	switch {
	case !r.open:
		s.State = "closed"
	case r.probing || !r.now().Before(r.reopenAt):
		s.State = "half-open"
	default:
		s.State = "open"
	}
	return s
}

func (r *RetryBackend) statsPtr() *RemoteStats {
	s := r.Stats()
	return &s
}

// TierStats implements TierStatter.
func (r *RetryBackend) TierStats() TierStats { return TierStats{Remote: r.statsPtr()} }
