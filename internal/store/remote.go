package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// StorePathPrefix is the route prefix a serve process sharing its
// corpus mounts: GET/PUT {prefix}/{key} for one envelope, GET {prefix}
// for the entry listing. The payloads are exactly the EncodeEnvelope
// bytes every other surface exchanges, so the wire adds framing, never
// a second encoding.
const StorePathPrefix = "/v1/store"

// defaultRemoteTimeout bounds one object round-trip against a remote
// store; a hung coordinator-side fetch must degrade to a local
// recompute, not stall the sweep. The retry layer applies tighter
// per-attempt deadlines on top; this is the outer safety net.
const defaultRemoteTimeout = 30 * time.Second

// HTTPBackend is the remote half of the backend seam: an object client
// for the /v1/store routes of a serve process (or anything speaking the
// same three-verb protocol). It moves raw bytes only — OpenRemote wraps
// it in BackendStore so every fetched envelope is verified against its key
// before anyone trusts it, the same defense the distributed tier
// applies to worker responses.
//
// Every verb honors the caller's context: a cancelled sweep aborts
// in-flight store I/O immediately instead of waiting out the flat
// client timeout.
type HTTPBackend struct {
	base   string
	client *http.Client
}

// NewHTTPBackend validates baseURL (http or https, with a host) and
// returns a backend talking to its /v1/store routes. A nil client gets
// a default with a per-request timeout.
func NewHTTPBackend(baseURL string, client *http.Client) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("store: remote %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: remote %q: need an http(s) base URL", baseURL)
	}
	if client == nil {
		client = &http.Client{Timeout: defaultRemoteTimeout}
	}
	return &HTTPBackend{base: strings.TrimRight(baseURL, "/"), client: client}, nil
}

// objectURL is the entry route for key.
func (b *HTTPBackend) objectURL(key Key) string {
	return b.base + StorePathPrefix + "/" + url.PathEscape(key.String())
}

// statusErr builds a typed error for a non-success response, so the
// retry layer can tell 4xx (permanent) from 5xx (transient).
func statusErr(code int, format string, args ...any) error {
	return &remoteStatusError{msg: fmt.Sprintf(format, args...), code: code}
}

// GetObject implements Backend: 404 is a clean miss, 200 returns the
// envelope bytes, anything else is an error. ctx bounds the whole
// round-trip.
func (b *HTTPBackend) GetObject(ctx context.Context, key Key) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.objectURL(key), nil)
	if err != nil {
		return nil, false, fmt.Errorf("store: remote get %s: %w", key, err)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("store: remote get %s: %w", key, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxRecordBytes+1))
		if err != nil {
			return nil, false, fmt.Errorf("store: remote get %s: %w", key, err)
		}
		if int64(len(data)) > maxRecordBytes {
			return nil, false, fmt.Errorf("store: remote get %s: oversized envelope", key)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, statusErr(resp.StatusCode, "store: remote get %s: %s", key, resp.Status)
	}
}

// PutObject implements Backend: PUT the envelope bytes; any 2xx is
// success (the server deduplicates identical writes itself). ctx
// bounds the whole round-trip.
func (b *HTTPBackend) PutObject(ctx context.Context, key Key, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.objectURL(key), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("store: remote put %s: %w", key, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("store: remote put %s: %w", key, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return statusErr(resp.StatusCode, "store: remote put %s: %s", key, resp.Status)
	}
	return nil
}

// ListObjects implements Backend: the server's sorted entry listing.
func (b *HTTPBackend) ListObjects(ctx context.Context) ([]Entry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+StorePathPrefix, nil)
	if err != nil {
		return nil, fmt.Errorf("store: remote list: %w", err)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("store: remote list: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp.StatusCode, "store: remote list: %s", resp.Status)
	}
	var out []Entry
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxListBytes)).Decode(&out); err != nil {
		return nil, fmt.Errorf("store: remote list: %w", err)
	}
	if out == nil {
		out = []Entry{}
	}
	return out, nil
}

// OpenRemote opens a remote store on a serve process sharing its
// corpus at baseURL: a BackendStore (the verification) over a
// RetryBackend with the default retry/breaker policy (the resilience)
// over an HTTPBackend (the bytes). `-store http://host:port` opens one,
// which is how a fleet shares a corpus without a shared filesystem.
func OpenRemote(baseURL string, client *http.Client) (*BackendStore, error) {
	b, err := NewHTTPBackend(baseURL, client)
	if err != nil {
		return nil, err
	}
	return NewBackendStore(NewRetryBackend(b, RetryOptions{})), nil
}

// maxListBytes bounds a remote listing response; a byzantine server
// must not balloon coordinator memory through the index route.
const maxListBytes = 256 << 20
