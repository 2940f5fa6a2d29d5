package serve

// The shared-store routes and the stats endpoint: a server started
// with ShareStore is a usable object store for store.OpenRemote
// clients, corrupt uploads are rejected at the door, and the counters
// behind /v1/stats tell the truth about corpus traffic.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/store"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func storeTestResult(seed int64) *scenario.Result {
	return &scenario.Result{
		Role: scenario.RoleChannel, Processor: "Cannon Lake", Kind: scenario.KindCores,
		Hash: "0123456789abcdef", Seed: seed,
		Bits: 4, SentBits: []int{1, 0, 1, 1}, DecodedBits: []int{1, 0, 1, 1},
		ThroughputBPS: 3000.25, BER: 0.125,
	}
}

// TestV1StoreSharing: a ShareStore server serves its corpus to a
// store.OpenRemote client — put, get, miss, and list all round-trip
// over the wire.
func TestV1StoreSharing(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		st := openTestStore(t)
		srv := New(Options{Store: st, ShareStore: true})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		remote, err := store.OpenRemote(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		key := store.Key{Hash: "0123456789abcdef", Seed: 7}
		if _, ok, err := remote.Get(key); ok || err != nil {
			t.Fatalf("miss through remote: ok=%v err=%v", ok, err)
		}
		if err := remote.Put(key, storeTestResult(7)); err != nil {
			t.Fatal(err)
		}
		res, ok, err := remote.Get(key)
		if !ok || err != nil {
			t.Fatalf("get through remote: ok=%v err=%v", ok, err)
		}
		if res.Seed != 7 || res.BER != 0.125 {
			t.Fatalf("wrong result over the wire: %+v", res)
		}
		ls, err := remote.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) != 1 || ls[0].Key != key {
			t.Fatalf("remote list %+v, want exactly %s", ls, key)
		}
		// The server tallied the traffic: one miss, one hit.
		hits, misses, errors := srv.StoreCounters()
		if hits != 1 || misses != 1 || errors != 0 {
			t.Fatalf("store counters %d/%d/%d, want 1 hit, 1 miss, 0 errors", hits, misses, errors)
		}
	})
}

// TestV1StoreRejectsBadUploads: the server verifies envelopes before
// storing them — garbage, checksum damage, and misidentified uploads
// all bounce with 400 and leave the corpus empty.
func TestV1StoreRejectsBadUploads(t *testing.T) {
	st := openTestStore(t)
	srv := New(Options{Store: st, ShareStore: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	key := store.Key{Hash: "0123456789abcdef", Seed: 1}
	good, err := store.EncodeEnvelope(key, storeTestResult(1))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01

	put := func(path, body, contentType string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	keyPath := store.StorePathPrefix + "/" + key.String()
	if code := put(keyPath, "not json", "application/json"); code != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", code)
	}
	if code := put(keyPath, string(flipped), "application/json"); code != http.StatusBadRequest {
		t.Errorf("damaged envelope: status %d, want 400", code)
	}
	// An intact envelope uploaded under someone else's key is caught by
	// the identity check.
	other := store.StorePathPrefix + "/ffff000011112222-9"
	if code := put(other, string(good), "application/json"); code != http.StatusBadRequest {
		t.Errorf("misidentified envelope: status %d, want 400", code)
	}
	if code := put(keyPath, string(good), "text/plain"); code != http.StatusUnsupportedMediaType {
		t.Errorf("wrong media type: status %d, want 415", code)
	}
	if code := put(store.StorePathPrefix+"/notakey", "{}", "application/json"); code != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", code)
	}
	ls, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 0 {
		t.Fatalf("a rejected upload reached the corpus: %+v", ls)
	}
	// The valid one lands.
	if code := put(keyPath, string(good), "application/json"); code != http.StatusNoContent {
		t.Errorf("valid upload: status %d, want 204", code)
	}
}

// TestV1StoreNotSharedByDefault: without ShareStore the object routes
// do not exist, even with a store configured — sharing is opt-in.
func TestV1StoreNotSharedByDefault(t *testing.T) {
	st := openTestStore(t)
	ts := httptest.NewServer(New(Options{Store: st}).Handler())
	defer ts.Close()
	if code, _ := getBody(t, ts, store.StorePathPrefix); code != http.StatusNotFound {
		t.Errorf("index route exists without -share: status %d", code)
	}
	if code, _ := getBody(t, ts, store.StorePathPrefix+"/abcd-1"); code != http.StatusNotFound {
		t.Errorf("entry route exists without -share: status %d", code)
	}
}

// TestV1Stats: the stats endpoint reports cache tallies always, store
// tallies only when a store is configured, and flags sharing.
func TestV1Stats(t *testing.T) {
	type stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Store *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Errors int64 `json:"errors"`
			Shared bool  `json:"shared"`
		} `json:"store"`
	}

	// Memory-only server: no store block.
	ts := httptest.NewServer(New(Options{}).Handler())
	code, body := getBody(t, ts, "/v1/stats")
	ts.Close()
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var bare stats
	if err := json.Unmarshal(body, &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Store != nil {
		t.Fatalf("memory-only server reports store stats: %+v", bare.Store)
	}

	// Stored server: one compute (store miss) + one repeat (memory hit),
	// then a restart serving from the store (store hit).
	st := openTestStore(t)
	spec := `{"role":"experiment","experiment":"fig6a","seed":5}`
	ts1 := httptest.NewServer(New(Options{Store: st, ShareStore: true}).Handler())
	postJSON(t, ts1, "/v1/scenarios", "application/json", spec)
	postJSON(t, ts1, "/v1/scenarios", "application/json", spec)
	code, body = getBody(t, ts1, "/v1/stats")
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var warm stats
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 1 || warm.Cache.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 hit / 1 miss", warm.Cache)
	}
	if warm.Store == nil || warm.Store.Hits != 0 || warm.Store.Misses != 1 || warm.Store.Errors != 0 {
		t.Errorf("store stats %+v, want 0 hits / 1 miss / 0 errors", warm.Store)
	}
	if !warm.Store.Shared {
		t.Error("shared flag not set")
	}

	ts2 := httptest.NewServer(New(Options{Store: st}).Handler())
	defer ts2.Close()
	postJSON(t, ts2, "/v1/scenarios", "application/json", spec)
	code, body = getBody(t, ts2, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var restarted stats
	if err := json.Unmarshal(body, &restarted); err != nil {
		t.Fatal(err)
	}
	if restarted.Store == nil || restarted.Store.Hits != 1 || restarted.Store.Misses != 0 {
		t.Errorf("restarted store stats %+v, want 1 hit / 0 misses", restarted.Store)
	}
	if restarted.Store.Shared {
		t.Error("shared flag set without ShareStore")
	}
}

// TestV1StoreDropsDamagedRecord: a shared packed corpus never serves a
// record that fails verification. The GET answers 404 (the store's read
// dropped the record, so the key is a miss), /v1/stats counts one
// permanent store error and no hit, and the client's PUT of the
// recomputed envelope heals the key.
func TestV1StoreDropsDamagedRecord(t *testing.T) {
	st := openTestStore(t)
	key := store.Key{Hash: "0123456789abcdef", Seed: 3}
	good, err := store.EncodeEnvelope(key, storeTestResult(3))
	if err != nil {
		t.Fatal(err)
	}
	// One flipped digit inside the result payload: valid JSON, wrong
	// checksum. PutObject trusts its caller, so the bytes land as is.
	bad := append([]byte(nil), good...)
	i := bytes.Index(bad, []byte(`"ber":`))
	if i < 0 {
		t.Fatalf("no ber field in %s", bad)
	}
	bad[i+6] ^= 0x01
	if err := st.PutObject(context.Background(), key, bad); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Options{Store: st, ShareStore: true}).Handler())
	defer ts.Close()
	keyPath := store.StorePathPrefix + "/" + key.String()
	if code, body := getBody(t, ts, keyPath); code != http.StatusNotFound {
		t.Fatalf("GET of a damaged record: status %d, want 404: %s", code, body)
	}
	code, body := getBody(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, body)
	}
	var stats struct {
		Store struct {
			Hits      int64 `json:"hits"`
			Permanent int64 `json:"permanent"`
		} `json:"store"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store.Permanent != 1 || stats.Store.Hits != 0 {
		t.Fatalf("store stats %+v, want 1 permanent error and 0 hits", stats.Store)
	}

	req, err := http.NewRequest(http.MethodPut, ts.URL+keyPath, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("healing PUT: status %d, want 204", resp.StatusCode)
	}
	code, body = getBody(t, ts, keyPath)
	if code != http.StatusOK {
		t.Fatalf("GET after the healing PUT: status %d: %s", code, body)
	}
	if _, err := store.DecodeEnvelope(key, body); err != nil {
		t.Fatalf("healed record fails verification: %v", err)
	}
}

// TestV1StoreDamageIsPermanent: every class of damage to a shared
// packed record under a live store — a flipped payload byte, a wrong
// length prefix, a segment truncated after open — ends the same way: the
// first GET answers 404 and /v1/stats counts one permanent store error
// and no transient one, so a client neither retries the read nor counts
// it toward opening its breaker.
func TestV1StoreDamageIsPermanent(t *testing.T) {
	key := store.Key{Hash: "0123456789abcdef", Seed: 3}
	good, err := store.EncodeEnvelope(key, storeTestResult(3))
	if err != nil {
		t.Fatal(err)
	}
	// The one record sits right after the segment's 8-byte magic: a
	// 4-byte big-endian length prefix, then the envelope.
	const recordOff = 8
	cases := []struct {
		name   string
		damage func(t *testing.T, seg string)
	}{
		{"payload flip", func(t *testing.T, seg string) {
			i := bytes.Index(good, []byte(`"ber":`))
			flipByte(t, seg, recordOff+4+int64(i)+6)
		}},
		{"length prefix", func(t *testing.T, seg string) {
			flipByte(t, seg, recordOff+3)
		}},
		{"truncated after open", func(t *testing.T, seg string) {
			if err := os.Truncate(seg, recordOff+4+int64(len(good))-10); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := openTestStore(t)
			if err := st.PutObject(context.Background(), key, good); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, filepath.Join(st.Dir(), store.SegmentsDirName, "00000001.seg"))

			ts := httptest.NewServer(New(Options{Store: st, ShareStore: true}).Handler())
			defer ts.Close()
			if code, body := getBody(t, ts, store.StorePathPrefix+"/"+key.String()); code != http.StatusNotFound {
				t.Fatalf("GET of a damaged record: status %d, want 404: %s", code, body)
			}
			_, body := getBody(t, ts, "/v1/stats")
			var stats struct {
				Store struct {
					Transient int64 `json:"transient"`
					Permanent int64 `json:"permanent"`
				} `json:"store"`
			}
			if err := json.Unmarshal(body, &stats); err != nil {
				t.Fatal(err)
			}
			if stats.Store.Permanent != 1 || stats.Store.Transient != 0 {
				t.Fatalf("store stats %+v, want 1 permanent and 0 transient errors", stats.Store)
			}
		})
	}
}

// flipByte flips the low bit of the byte at off in the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestServeOverPackedStore: a server on a reopened packed corpus warms
// from its sealed segments.
func TestServeOverPackedStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"role":"experiment","experiment":"fig6a","seed":5}`
	ts1 := httptest.NewServer(New(Options{Store: st}).Handler())
	code, body := postJSON(t, ts1, "/v1/scenarios", "application/json", spec)
	ts1.Close()
	if code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", code, body)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenPacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv := New(Options{Store: st2})
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	code, body = postJSON(t, ts2, "/v1/scenarios", "application/json", spec)
	if code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", code, body)
	}
	var resp struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("packed-store restart did not serve from segments")
	}
	if hits, misses, errs := srv.StoreCounters(); hits != 1 || misses != 0 || errs != 0 {
		t.Errorf("store counters %d/%d/%d, want 1 hit, 0 misses, 0 errors", hits, misses, errs)
	}
}
