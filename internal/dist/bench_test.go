package dist_test

import (
	"context"
	"testing"

	"ichannels/internal/dist"
	"ichannels/internal/scenario"
)

// BenchmarkDispatchCell sends one hot cell per iteration from a
// coordinator Pool to POST /v1/cells on an in-process worker and back
// through the envelope check (store.DecodeEnvelope). The warm-up
// dispatch leaves the cell in the worker's memory cache, so the loop
// measures the dist layer — request framing, the HTTP round trip and
// verification — not the simulator.
func BenchmarkDispatchCell(b *testing.B) {
	pool, err := dist.New([]string{newWorker(b).URL}, dist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := scenario.Scenario{Role: scenario.RoleChannel, Kind: scenario.KindCores, Bits: 8}
	hash := s.Hash()
	ctx := context.Background()
	if _, err := pool.RunCell(ctx, s, hash, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	n := 1
	for b.Loop() {
		if _, err := pool.RunCell(ctx, s, hash, 1); err != nil {
			b.Fatal(err)
		}
		n++
	}
	if st := pool.Stats(); st.Dispatched != n || st.LocalFallback != 0 || st.Corrupt != 0 {
		b.Fatalf("pool stats %+v, want %d verified dispatches", st, n)
	}
}
