package serve

// The store-sharing routes: when a server is started with both a store
// and ShareStore, its corpus becomes the object store for a fleet —
// remote processes open `-store http://host:port` (store.OpenRemote)
// and read/write checksummed envelopes over GET/PUT /v1/store/{key}
// without a shared filesystem. The wire carries exactly the bytes a
// segment record holds, so the envelope verification on both
// ends is unchanged; this server never has to trust its clients (a
// corrupt PUT is rejected before it touches disk) and clients never
// have to trust this server (the BackendStore OpenRemote returns
// re-verifies every GET). A GET never serves a damaged record either:
// the store's read drops it, the route answers 404, and the client's
// recompute-and-PUT heals the key.
//
// /v1/stats is served unconditionally: operators watching a fleet need
// the cache and store tallies whether or not the corpus is shared.

import (
	"fmt"
	"io"
	"net/http"

	"ichannels/internal/soc"
	"ichannels/internal/store"
)

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Cache cacheStats `json:"cache"`
	// Machines is the machine-pool tally: simulated SoCs built from
	// scratch vs recycled across scenario runs (wall-clock metadata;
	// reuse never changes result bytes).
	Machines soc.PoolStats `json:"machines"`
	Store    *storeStats   `json:"store,omitempty"`
}

type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

type storeStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Errors int64 `json:"errors"`
	// Transient and Permanent split Errors by failure class: network
	// blips vs corrupt envelopes (a byzantine upstream).
	Transient int64 `json:"transient"`
	Permanent int64 `json:"permanent"`
	Shared    bool  `json:"shared"`
	// Tier reports the remote-path counters (retry attempts, breaker
	// state, replica cache) when this server's store has a remote
	// behind it.
	Tier *store.TierStats `json:"tier,omitempty"`
	// Retention advertises the server-side GC config and last report
	// when a retention timer is configured.
	Retention *retentionStats `json:"retention,omitempty"`
}

// retentionStats is the /v1/stats retention block.
type retentionStats struct {
	GCEvery  string `json:"gc_every"`
	MaxAge   string `json:"max_age,omitempty"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
	Runs     int64  `json:"runs"`
	// LastUnix is the wall-clock time of the last pass (0 before the
	// first).
	LastUnix  int64           `json:"last_unix,omitempty"`
	Last      *store.GCReport `json:"last,omitempty"`
	LastError string          `json:"last_error,omitempty"`
}

// v1Stats handles GET /v1/stats.
func (s *Server) v1Stats(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	resp := statsResponse{}
	resp.Cache.Hits, resp.Cache.Misses = s.CacheStats()
	resp.Machines = s.machines.Stats()
	if s.store != nil {
		st := &storeStats{Shared: s.shareStore}
		st.Hits, st.Misses, st.Transient, st.Permanent = s.tally.Counts()
		st.Errors = st.Transient + st.Permanent
		if ts, ok := s.store.(store.TierStatter); ok {
			t := ts.TierStats()
			st.Tier = &t
		}
		if s.gcEvery > 0 {
			ret := &retentionStats{
				GCEvery:  s.gcEvery.String(),
				MaxBytes: s.gcMaxBytes,
			}
			if s.gcMaxAge > 0 {
				ret.MaxAge = s.gcMaxAge.String()
			}
			s.mu.Lock()
			ret.Runs = s.gcRuns
			ret.Last = s.lastGC
			ret.LastError = s.lastGCErr
			if !s.lastGCAt.IsZero() {
				ret.LastUnix = s.lastGCAt.Unix()
			}
			s.mu.Unlock()
			st.Retention = ret
		}
		resp.Store = st
	}
	writeJSON(w, http.StatusOK, resp)
}

// backend returns the store's raw-object interface. The packed store,
// the replica cache and the remote client implement it; a store that doesn't
// (possible through the facade's custom-Store seam) can still serve
// scenarios but cannot share objects.
func (s *Server) backend() (store.Backend, bool) {
	b, ok := s.store.(store.Backend)
	return b, ok
}

// v1StoreIndex handles GET /v1/store: the corpus listing, which remote
// `store ls` and resume planning consume.
func (s *Server) v1StoreIndex(w http.ResponseWriter, r *http.Request) {
	if !methodOnly(w, r, http.MethodGet) {
		return
	}
	b, ok := s.backend()
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeUnsupported,
			"this server's store does not expose raw objects")
		return
	}
	ls, err := b.ListObjects(r.Context())
	if err != nil {
		s.tally.Count(err)
		writeError(w, http.StatusInternalServerError, CodeStoreError, "list store: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ls)
}

// v1StoreEntry handles GET and PUT /v1/store/{key}.
func (s *Server) v1StoreEntry(w http.ResponseWriter, r *http.Request) {
	b, ok := s.backend()
	if !ok {
		writeError(w, http.StatusNotImplemented, CodeUnsupported,
			"this server's store does not expose raw objects")
		return
	}
	key, ok := store.ParseKeyString(r.URL.Path[len(store.StorePathPrefix)+1:])
	if !ok {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"store keys look like <hash>-<seed>")
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok, err := b.GetObject(r.Context(), key)
		s.tally.Read(ok, err)
		if store.IsCorrupt(err) {
			// The record failed verification and the store's read
			// dropped it: the key is a miss now. A 5xx would make the
			// client retry the same damage and count it toward opening
			// its breaker.
			writeError(w, http.StatusNotFound, CodeNotFound, "no result for %s: %v", key, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeStoreError,
				"read %s: %v", key, err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, "no result for %s", key)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case http.MethodPut:
		if !requireJSON(w, r) {
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "read body: %v", err)
			return
		}
		if len(data) > maxBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"envelope exceeds %d bytes", maxBodyBytes)
			return
		}
		// With a byte budget configured, an envelope that alone busts
		// it would be evicted by the next GC pass anyway; reject it at
		// the door instead of churning the corpus.
		if s.gcMaxBytes > 0 && int64(len(data)) > s.gcMaxBytes {
			writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"envelope exceeds the store byte budget (%d bytes)", s.gcMaxBytes)
			return
		}
		// Verify before storing: the corpus only ever holds envelopes
		// that decode, identify their key, and pass their checksum.
		if _, err := store.DecodeEnvelope(key, data); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"rejected envelope for %s: %v", key, err)
			return
		}
		if err := b.PutObject(r.Context(), key, data); err != nil {
			s.tally.Count(err)
			writeError(w, http.StatusInternalServerError, CodeStoreError,
				"write %s: %v", key, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", fmt.Sprintf("%s, %s", http.MethodGet, http.MethodPut))
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"use GET or PUT")
	}
}
