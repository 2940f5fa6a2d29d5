package ichannels_test

// Fuzz the remote-store client against a byzantine share server: the
// server answers every request with attacker-controlled status and
// body bytes. The invariants are the trust boundary of the shared
// corpus — no response may panic the client, a result is only ever
// served if its envelope verified, and the replica cache never
// persists bytes that did not verify. Smoke window in CI; longer local
// runs: go test -run '^$' -fuzz FuzzRemoteResponses -fuzztime 2m .

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

func FuzzRemoteResponses(f *testing.F) {
	key := store.Key{Hash: "0123456789abcdef", Seed: 1}
	result := &scenario.Result{Role: scenario.RoleChannel, Hash: key.Hash, Seed: key.Seed, Bits: 1}
	valid, err := store.EncodeEnvelope(key, result)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(200), valid)
	f.Add(uint16(200), valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(uint16(200), flipped)
	f.Add(uint16(200), []byte(`{}`))
	f.Add(uint16(200), []byte(`[]`))
	f.Add(uint16(200), []byte(`<html>504 Gateway Time-out</html>`))
	f.Add(uint16(200), []byte{})
	f.Add(uint16(404), []byte(`{"error":"not found"}`))
	f.Add(uint16(503), []byte(`chaos: burst`))
	f.Add(uint16(413), []byte(`too large`))

	// One server reused across iterations; each iteration swaps the
	// scripted response under the lock (iterations are sequential
	// within a fuzz worker process).
	var mu sync.Mutex
	status, body := 200, []byte(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s, b := status, append([]byte(nil), body...)
		mu.Unlock()
		w.WriteHeader(s)
		w.Write(b)
	}))
	f.Cleanup(srv.Close)
	backend, err := store.NewHTTPBackend(srv.URL, srv.Client())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, rawStatus uint16, data []byte) {
		mu.Lock()
		// Clamp to a final-response status; 1xx would make the client
		// wait for a second response that never comes.
		status = 200 + int(rawStatus)%400
		body = data
		mu.Unlock()

		rb := store.NewRetryBackend(backend, store.RetryOptions{Disable: true})
		remote := store.NewBackendStore(rb)
		res, ok, err := remote.Get(key)
		if ok && (err != nil || res == nil) {
			t.Fatalf("remote get: ok with err=%v res=%v", err, res)
		}
		// Writes and listings against the hostile server must degrade
		// to errors, never panic.
		_ = remote.Put(key, result)
		_, _ = rb.ListObjects(t.Context())

		rep, rerr := store.OpenReplica(t.TempDir(), rb)
		if rerr != nil {
			t.Fatal(rerr)
		}
		defer rep.Close()
		res2, ok2, _ := rep.Get(key)
		if ok2 && res2 == nil {
			t.Fatal("replica get: ok with nil result")
		}
		cachedBytes, cached, _ := rep.Local().GetObject(t.Context(), key)
		if cached {
			// Whatever landed in the cache must be a verified envelope
			// for the key — byzantine bytes never persist.
			if _, derr := store.DecodeEnvelope(key, cachedBytes); derr != nil {
				t.Fatalf("replica cached an envelope that does not verify: %v", derr)
			}
		}
		if !ok2 && cached {
			t.Fatal("replica cached bytes for a key it refused to serve")
		}
	})
}
