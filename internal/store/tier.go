package store

// Tier counters: how the remote-store path degraded (or didn't) during
// a run. The retry backend and the replica cache each publish their
// half; TierStats is the merged snapshot the sweep timing lines and
// /v1/stats report. Counters describe wall-clock behavior only — output
// bytes are identical whatever these say, by the determinism contract.

// RemoteStats counts the retry/breaker layer's view of a remote store.
type RemoteStats struct {
	// Attempts is every HTTP attempt issued (first tries and retries).
	Attempts int64 `json:"attempts"`
	// Retries is attempts beyond the first for an operation.
	Retries int64 `json:"retries"`
	// Transient counts failed attempts worth retrying: transport
	// errors, timeouts, 5xx.
	Transient int64 `json:"transient"`
	// Permanent counts failures retrying cannot fix: 4xx responses.
	// (Corrupt envelopes are counted above this layer, by whoever
	// verifies the bytes.)
	Permanent int64 `json:"permanent"`
	// BreakerOpens counts closed→open transitions: each is one degraded
	// span during which the remote was presumed dead.
	BreakerOpens int64 `json:"breaker_opens"`
	// FastFails counts operations rejected while the circuit was open,
	// without contacting the remote.
	FastFails int64 `json:"fast_fails"`
	// State is the breaker state at snapshot time: closed, open, or
	// half-open.
	State string `json:"state"`
}

// ReplicaStats counts the read-through replica cache's activity.
type ReplicaStats struct {
	// LocalHits are reads served from the local cache with no network.
	LocalHits int64 `json:"local_hits"`
	// RemoteFills are remote hits verified and persisted locally.
	RemoteFills int64 `json:"remote_fills"`
	// RemoteMisses are clean misses on both tiers.
	RemoteMisses int64 `json:"remote_misses"`
	// CorruptRemote counts remote responses that failed envelope
	// verification and were rejected without caching.
	CorruptRemote int64 `json:"corrupt_remote"`
	// LocalPuts are writes persisted to the local cache.
	LocalPuts int64 `json:"local_puts"`
	// FlushOK / FlushErrors / FlushDropped account the async upstream
	// flush queue: successful pushes, failed pushes (the entry stays
	// local; `store sync` reconciles), and writes dropped because the
	// queue was full.
	FlushOK      int64 `json:"flush_ok"`
	FlushErrors  int64 `json:"flush_errors"`
	FlushDropped int64 `json:"flush_dropped"`
	// FlushPending is the queue depth at snapshot time.
	FlushPending int64 `json:"flush_pending"`
}

// TierStats is the merged remote-path snapshot a store exposes.
type TierStats struct {
	Remote  *RemoteStats  `json:"remote,omitempty"`
	Replica *ReplicaStats `json:"replica,omitempty"`
}

// TierStatter is implemented by stores with a remote path worth
// reporting on (Remote, ReplicaStore, RetryBackend). The CLI's run
// commands read it after a run; serve includes it in /v1/stats.
type TierStatter interface {
	TierStats() TierStats
}
