package scenario_test

import (
	"bytes"
	"context"
	"testing"

	"ichannels/internal/scenario"
	"ichannels/internal/soc"
	"ichannels/internal/store"
)

// reuseProcessors are the profiles FuzzMachineReuse draws from.
var reuseProcessors = []string{"Haswell", "Coffee Lake", "Cannon Lake", "Skylake-SP"}

// specBytes is the length of one encoded spec.
const specBytes = 7

// reuseSpec decodes one fuzzed scenario from specBytes bytes: role
// (channel or mitigation-eval) and kind, then the mitigation or the
// interrupt rate, context-switch rate and TSC jitter of the channel
// role's noise, then the seed and the bits. Both specs
// of an input share its processor, so they usually share a machine
// shape and the second runs on the machine the first released.
func reuseSpec(proc string, b []byte) scenario.Scenario {
	kinds, mitigations := scenario.ChannelKindNames(), scenario.MitigationNames()
	s := scenario.Scenario{
		Processor: proc,
		Kind:      kinds[int(b[0]>>1)%len(kinds)],
		Seed:      int64(b[4])<<8 | int64(b[5]) + 1,
		Bits:      2 * (1 + int(b[6])%12),
	}
	if b[0]&1 == 0 {
		s.Role = scenario.RoleMitigation
		s.Mitigation = mitigations[int(b[1])%len(mitigations)]
		return s
	}
	s.Role = scenario.RoleChannel
	if b[1] != 0 || b[2] != 0 || b[3] != 0 {
		s.Noise = &scenario.Noise{
			InterruptsPerSec:  float64(b[1]) * 40,
			CtxSwitchesPerSec: float64(b[2]) * 4,
			TSCJitterCycles:   int64(b[3]),
		}
	}
	return s
}

// outcome runs s through runner and returns the bytes the result store
// would persist for it, or the error of a run that fails (a calibration
// under heavy noise can).
func outcome(t *testing.T, runner scenario.Runner, s scenario.Scenario) []byte {
	t.Helper()
	n, hash, err := s.Identify()
	if err != nil {
		return []byte("error: " + err.Error())
	}
	res, err := runner.RunCell(context.Background(), n, hash, n.Seed)
	if err != nil {
		return []byte("error: " + err.Error())
	}
	data, err := store.EncodeEnvelope(store.Key{Hash: res.Hash, Seed: res.Seed}, res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzMachineReuse checks the machine pool's contract on fuzzed pairs of
// scenarios: scenario B run on a machine recycled from scenario A must
// persist the same bytes (or fail with the same error) as B on a fresh
// machine. State that Reset fails to clear from A's run shows up as a
// difference. CI runs it for a short smoke window; longer local runs:
// go test -run '^$' -fuzz '^FuzzMachineReuse$' -fuzztime 2m ./internal/scenario/
func FuzzMachineReuse(f *testing.F) {
	// Cannon Lake: thread under per-core VRs, then noisy cores.
	f.Add([]byte{2, 0, 1, 0, 0, 0, 4, 7, 5, 10, 50, 150, 0, 9, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1+2*specBytes {
			return
		}
		proc := reuseProcessors[int(in[0])%len(reuseProcessors)]
		a, b := reuseSpec(proc, in[1:1+specBytes]), reuseSpec(proc, in[1+specBytes:1+2*specBytes])
		if a.Validate() != nil || b.Validate() != nil {
			return
		}
		pooled := scenario.Runner{Machines: soc.NewPool()}
		outcome(t, pooled, a) // leaves A's machine idle for B
		got := outcome(t, pooled, b)
		if want := outcome(t, scenario.Runner{}, b); !bytes.Equal(got, want) {
			t.Fatalf("%s after %s on a recycled machine:\n%s\nwant (fresh machine):\n%s", b.Describe(), a.Describe(), got, want)
		}
	})
}
