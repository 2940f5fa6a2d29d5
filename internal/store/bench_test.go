package store

// Packed-store benchmarks: write throughput into a fresh corpus, warm-read
// latency against a reopened fixed-size corpus, and one gc pass. CI runs
//
//	go test -run '^$' -bench '^BenchmarkStore' -benchmem ./internal/store/
//
// and archives the output through tools/benchjson as BENCH_STORE.json.

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ichannels/internal/scenario"
	"ichannels/internal/stats"
)

// benchCorpus is the entry count of the corpus the read and gc
// benchmarks run against.
const benchCorpus = 20000

// benchResult builds the i-th synthetic result. Small and realistic:
// the per-entry envelope lands in the few-hundred-byte range a real
// sweep cell produces.
func benchResult(hash string, i int) *scenario.Result {
	return &scenario.Result{
		Role: scenario.RoleChannel, Processor: "Cannon Lake", Kind: scenario.KindCores,
		Hash: hash, Seed: 1,
		Bits: 4, SentBits: []int{1, 0, 1, 1}, DecodedBits: []int{1, 0, 1, 1},
		ThroughputBPS: 3000.25 + float64(i%97), BER: float64(i%8) / 64,
		ElapsedSimUS: 1234.5 + float64(i%13),
		Extra:        map[string]float64{"calibration_gap_cycles": float64(4200 + i%29)},
	}
}

// benchKey derives the i-th synthetic key: distinct hashes spread
// across shards the way real scenario hashes are.
func benchKey(i int) Key {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return Key{Hash: hex.EncodeToString(sum[:8]), Seed: 1}
}

// fillCorpus writes n synthetic entries into a fresh packed store under
// dir and seals it.
func fillCorpus(b *testing.B, dir string, n int) {
	b.Helper()
	st, err := OpenPacked(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(benchKey(i), benchResult(benchKey(i).Hash, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// reopenedCorpus fills a benchCorpus-entry corpus and reopens it, so the
// timed operations pay the index load up front — the resume/serve access
// pattern.
func reopenedCorpus(b *testing.B) *Packed {
	b.Helper()
	dir := filepath.Join(b.TempDir(), "corpus")
	fillCorpus(b, dir, benchCorpus)
	st, err := OpenPacked(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkStoreWrite fills a fresh corpus with b.N entries, seal
// included.
func BenchmarkStoreWrite(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "corpus")
	b.ReportAllocs()
	b.ResetTimer()
	fillCorpus(b, dir, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "entries_per_sec")
}

// BenchmarkStoreWarmRead gets b.N keys from the reopened corpus in a
// deterministic LCG sequence (identical on every run) and reports the
// per-read p95 alongside the mean.
func BenchmarkStoreWarmRead(b *testing.B) {
	st := reopenedCorpus(b)
	lat := make([]float64, b.N)
	rng := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range lat {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := benchKey(int(rng % benchCorpus))
		t0 := time.Now()
		_, ok, err := st.Get(key)
		lat[i] = float64(time.Since(t0).Nanoseconds())
		if err != nil || !ok {
			b.Fatalf("warm read %s: ok=%v err=%v", key, ok, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(stats.Summarize(lat).P95, "p95_ns")
}

// BenchmarkStoreGC runs one zero-options gc pass (integrity sweep plus
// compaction) over the reopened corpus per iteration.
func BenchmarkStoreGC(b *testing.B) {
	st := reopenedCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.GC(); err != nil {
			b.Fatal(err)
		}
	}
}
