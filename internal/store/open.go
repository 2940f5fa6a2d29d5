package store

import (
	"fmt"
	"strconv"
	"strings"
)

var (
	_ Store   = (*Packed)(nil)
	_ Backend = (*Packed)(nil)
	_ Store   = (*BackendStore)(nil)
	_ Backend = (*BackendStore)(nil)
)

// isRemoteSpec reports whether a -store argument names a remote
// backend (an http:// or https:// base URL) rather than a directory.
func isRemoteSpec(spec string) bool {
	return strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://")
}

// OpenAuto opens any -store argument, with the optional -cache
// directory: a packed directory store for a path, a remote store for an
// http(s) URL, and with cacheDir set a read-through replica cache in
// cacheDir layered over that remote. A cache only makes sense in front
// of a remote — a local directory already is the cache.
func OpenAuto(spec, cacheDir string) (Store, error) {
	if !isRemoteSpec(spec) {
		if cacheDir != "" {
			return nil, fmt.Errorf("store: a -cache directory only applies to a remote store URL (a local directory already is the cache)")
		}
		p, err := OpenPacked(spec)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	r, err := OpenRemote(spec, nil)
	if err != nil {
		return nil, err
	}
	if cacheDir == "" {
		return r, nil
	}
	rs, err := OpenReplica(cacheDir, r)
	if err != nil {
		return nil, err
	}
	return rs, nil
}

// ParseKeyString recovers a Key from its canonical "hash-seed" spelling
// (Key.String, entry file basenames, /v1/store/{key} path elements).
func ParseKeyString(s string) (Key, bool) {
	i := strings.LastIndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return Key{}, false
	}
	seed, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return Key{}, false
	}
	return Key{Hash: s[:i], Seed: seed}, true
}

// CloseStore closes s if it is closeable (packed stores seal their
// active segment, replicas drain their flush queue); a convenience for
// callers holding the Store interface. A WriteOnly view closes the
// store it wraps.
func CloseStore(s Store) error {
	if c, ok := s.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
