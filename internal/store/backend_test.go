package store

// The backend seam: the packed store and the HTTP remote expose the
// same three-verb object protocol, and BackendStore layers the
// envelope verification that makes any of them safe to trust.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// backendFixtures returns one backend per implementation, each holding
// the same two entries, plus the server teardown for the remote.
func backendFixtures(t *testing.T) map[string]Backend {
	t.Helper()
	keys := []Key{
		{Hash: "0123456789abcdef", Seed: 1},
		{Hash: "fedcba9876543210", Seed: 2},
	}
	fill := func(s Store) {
		for _, key := range keys {
			if err := s.Put(key, testResult(key)); err != nil {
				t.Fatal(err)
			}
		}
	}

	packed := openPackedTest(t)
	fill(packed)

	// The remote backend, served off a packed store the way
	// `serve -store DIR -share` does — but through a minimal handler so
	// this test pins the wire protocol itself, not the serve layer.
	origin := openPackedTest(t)
	fill(origin)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == StorePathPrefix {
			ls, _ := origin.List()
			writeTestJSON(w, ls)
			return
		}
		key, ok := ParseKeyString(r.URL.Path[len(StorePathPrefix)+1:])
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			data, ok, err := origin.GetObject(r.Context(), key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(data)
		case http.MethodPut:
			buf := make([]byte, r.ContentLength)
			r.Body.Read(buf)
			if err := origin.PutObject(r.Context(), key, buf); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(srv.Close)
	hb, err := NewHTTPBackend(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	return map[string]Backend{"packed": packed, "http": hb}
}

func writeTestJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, _ := json.Marshal(v)
	w.Write(data)
}

func TestBackendRoundTrip(t *testing.T) {
	for name, b := range backendFixtures(t) {
		t.Run(name, func(t *testing.T) {
			st := NewBackendStore(b)
			key := Key{Hash: "0123456789abcdef", Seed: 1}
			res, ok, err := st.Get(key)
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			if res.Seed != 1 || res.BER != 0.125 {
				t.Fatalf("wrong result through backend: %+v", res)
			}
			if _, ok, err := st.Get(Key{Hash: "0123456789abcdef", Seed: 999}); ok || err != nil {
				t.Fatalf("miss: ok=%v err=%v", ok, err)
			}
			// Put through the verifying store, read back.
			put := Key{Hash: "00aa00aa00aa00aa", Seed: 5}
			if err := st.Put(put, testResult(put)); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := st.Get(put); !ok || err != nil {
				t.Fatalf("read-after-write: ok=%v err=%v", ok, err)
			}
			ls, err := b.ListObjects(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			if len(ls) != 3 {
				t.Fatalf("listed %d entries, want 3", len(ls))
			}
		})
	}
}

// TestBackendStoreRejectsCorruptBytes: a backend serving damaged bytes
// is caught by BackendStore's envelope verification — the byzantine-
// backend defense.
func TestBackendStoreRejectsCorruptBytes(t *testing.T) {
	key := Key{Hash: "0123456789abcdef", Seed: 1}
	good, err := EncodeEnvelope(key, testResult(key))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	st := NewBackendStore(fakeBackend{data: bad})
	if _, ok, err := st.Get(key); err == nil || ok {
		t.Fatalf("corrupt backend bytes accepted: ok=%v err=%v", ok, err)
	}
	// And a backend serving someone else's (intact) envelope is caught
	// by the identity check.
	otherKey := Key{Hash: "fedcba9876543210", Seed: 2}
	other, _ := EncodeEnvelope(otherKey, testResult(otherKey))
	st = NewBackendStore(fakeBackend{data: other})
	if _, ok, err := st.Get(key); err == nil || ok {
		t.Fatalf("misidentified envelope accepted: ok=%v err=%v", ok, err)
	}
}

type fakeBackend struct{ data []byte }

func (f fakeBackend) GetObject(context.Context, Key) ([]byte, bool, error) { return f.data, true, nil }
func (f fakeBackend) PutObject(context.Context, Key, []byte) error         { return nil }
func (f fakeBackend) ListObjects(context.Context) ([]Entry, error)         { return []Entry{}, nil }

// TestHTTPBackendErrors: server failures surface as errors (which the
// engine degrades to recomputes), never as false hits.
func TestHTTPBackendErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	b, err := NewHTTPBackend(srv.URL, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := b.GetObject(t.Context(), Key{Hash: "ab", Seed: 1}); err == nil || ok {
		t.Fatalf("500 treated as ok=%v err=%v", ok, err)
	}
	if err := b.PutObject(t.Context(), Key{Hash: "ab", Seed: 1}, []byte("{}")); err == nil {
		t.Fatal("500 on put not surfaced")
	}
	if _, err := b.ListObjects(t.Context()); err == nil {
		t.Fatal("500 on list not surfaced")
	}

	for _, bad := range []string{"", "ftp://host", "not a url", "http://"} {
		if _, err := NewHTTPBackend(bad, nil); err == nil {
			t.Errorf("NewHTTPBackend(%q) accepted", bad)
		}
	}
}

// TestOpenAuto routes specs: paths to the packed store, URLs to the
// remote store, URLs plus a cache directory to the replica cache, and
// refuses a cache in front of a directory.
func TestOpenAuto(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenAuto(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*Packed); !ok {
		t.Fatalf("OpenAuto(dir) = %T, want *Packed", st)
	}
	CloseStore(st)

	st, err = OpenAuto("http://127.0.0.1:9", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*BackendStore); !ok {
		t.Fatalf("OpenAuto(url) = %T, want *BackendStore", st)
	}

	st, err = OpenAuto("http://127.0.0.1:9", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*ReplicaStore); !ok {
		t.Fatalf("OpenAuto(url, cache) = %T, want *ReplicaStore", st)
	}
	CloseStore(st)

	if st, err := OpenAuto(dir, t.TempDir()); err == nil {
		t.Fatalf("OpenAuto(dir, cache) = %T, want an error", st)
	}
	if !isRemoteSpec("https://host/x") || isRemoteSpec("/tmp/store") {
		t.Fatal("isRemoteSpec misclassifies")
	}
}
