package store

// Error classification for the degraded paths: every store failure an
// engine sees is either transient (the network blipped, the server had
// a bad moment — retrying or recomputing locally is the answer) or
// permanent (the bytes themselves are wrong — retrying would fetch the
// same damage). The split matters operationally: a transient burst
// points at infrastructure, a permanent count points at a corrupt or
// byzantine server, and the sweep counters report them separately.

import (
	"errors"
	"sync/atomic"
)

// ErrCorrupt marks an envelope that failed verification: malformed
// JSON, wrong version, wrong identity, or a checksum mismatch. Matched
// with errors.Is; every DecodeEnvelope failure carries it.
var ErrCorrupt = errors.New("store: corrupt envelope")

// ErrUnavailable marks a fast-fail while the remote circuit breaker is
// open: the remote was not contacted at all. Transient by definition —
// the breaker will probe again after its cooldown.
var ErrUnavailable = errors.New("store: remote unavailable (circuit open)")

// corruptError tags an envelope-verification failure without changing
// its message. errors.Is(err, ErrCorrupt) matches through it.
type corruptError struct{ err error }

func (e *corruptError) Error() string        { return e.err.Error() }
func (e *corruptError) Unwrap() error        { return e.err }
func (e *corruptError) Is(target error) bool { return target == ErrCorrupt }

// markCorrupt wraps err as a permanent corruption error.
func markCorrupt(err error) error {
	if err == nil {
		return nil
	}
	return &corruptError{err: err}
}

// remoteStatusError carries the HTTP status of a failed remote call so
// the retry layer can split client errors (permanent: the request is
// wrong) from server errors (transient: the server is having a bad
// time).
type remoteStatusError struct {
	msg  string
	code int
}

func (e *remoteStatusError) Error() string { return e.msg }

// IsCorrupt reports whether err marks a permanently damaged envelope.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// IsPermanentError reports whether a store failure is permanent:
// retrying cannot help (corrupt envelope, 4xx from the remote).
// Everything else — transport errors, 5xx, timeouts, an open breaker —
// is transient: the same request may succeed later, and the engine's
// local recompute covers the meantime.
func IsPermanentError(err error) bool {
	if err == nil {
		return false
	}
	if IsCorrupt(err) {
		return true
	}
	var se *remoteStatusError
	if errors.As(err, &se) {
		return se.code >= 400 && se.code < 500
	}
	return false
}

// Tally counts one consumer's store traffic: reads that hit, clean
// misses, and degraded operations by failure class — a transient
// failure is the network's fault, a permanent one the bytes'. Both
// classes degrade identically (recompute or skip the write); only the
// diagnosis differs. The zero value is ready and safe for concurrent
// use — the engine stream and the server each keep one.
type Tally struct {
	hits      atomic.Int64
	misses    atomic.Int64
	transient atomic.Int64
	permanent atomic.Int64
}

// Read tallies one read's outcome: an error under its class, else a
// hit or a clean miss.
func (t *Tally) Read(ok bool, err error) {
	switch {
	case err != nil:
		t.Count(err)
	case ok:
		t.hits.Add(1)
	default:
		t.misses.Add(1)
	}
}

// Count tallies one failed store operation under its class.
func (t *Tally) Count(err error) {
	if IsPermanentError(err) {
		t.permanent.Add(1)
	} else {
		t.transient.Add(1)
	}
}

// Counts snapshots the tally.
func (t *Tally) Counts() (hits, misses, transient, permanent int64) {
	return t.hits.Load(), t.misses.Load(), t.transient.Load(), t.permanent.Load()
}
