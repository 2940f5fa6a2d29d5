package scenario

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ichannels/internal/units"
)

// TestRegistryComplete: every registry entry carries everything the
// dispatchers need, so a half-filled entry fails here instead of as a
// nil-dereference inside a run.
func TestRegistryComplete(t *testing.T) {
	if len(kindRegistry) == 0 {
		t.Fatal("empty kind registry")
	}
	for _, ks := range kindRegistry {
		if ks.name == "" || ks.describe == "" || ks.source == "" {
			t.Errorf("kind %+v: missing name/describe/source", ks)
		}
		if ks.defaultBits <= 0 || ks.defaultBits%2 != 0 {
			t.Errorf("kind %s: default bits %d not positive and even", ks.name, ks.defaultBits)
		}
		if ks.defaultCalibReps <= 0 {
			t.Errorf("kind %s: default calib reps %d", ks.name, ks.defaultCalibReps)
		}
		if ks.open == nil {
			t.Errorf("kind %s: missing constructor", ks.name)
		}
	}
	for _, bs := range baselineRegistry {
		if bs.open == nil || bs.defaultBits <= 0 || bs.defaultCalibReps <= 0 {
			t.Errorf("baseline %s: incomplete entry", bs.name)
		}
	}
}

// TestSchemaEnumsMatchRegistry is the drift guard: the schema document's
// kind/baseline/mitigation enums must be exactly the registry keys —
// there is no second hand-maintained list to fall out of sync.
func TestSchemaEnumsMatchRegistry(t *testing.T) {
	props := Schema()["properties"].(map[string]any)
	enumOf := func(field string) []string {
		raw, ok := props[field].(map[string]any)["enum"]
		if !ok {
			t.Fatalf("schema field %s has no enum", field)
		}
		return raw.([]string)
	}
	if got := enumOf("kind"); !reflect.DeepEqual(got, ChannelKindNames()) {
		t.Errorf("schema kind enum %v != registry %v", got, ChannelKindNames())
	}
	if got := enumOf("baseline"); !reflect.DeepEqual(got, BaselineNames()) {
		t.Errorf("schema baseline enum %v != registry %v", got, BaselineNames())
	}
	if got := enumOf("mitigation"); !reflect.DeepEqual(got, MitigationNames()) {
		t.Errorf("schema mitigation enum %v != registry %v", got, MitigationNames())
	}
}

// TestValidateAcceptanceMatchesRegistry: Validate accepts exactly the
// registered names for each role — every registered kind/baseline/
// mitigation passes, and any unregistered name is a validation error
// (never a silent fallback to a default).
func TestValidateAcceptanceMatchesRegistry(t *testing.T) {
	for _, k := range ChannelKindNames() {
		for _, role := range []string{RoleChannel, RoleMitigation} {
			if err := (Scenario{Role: role, Kind: k}).Validate(); err != nil {
				t.Errorf("registered kind %s rejected for role %s: %v", k, role, err)
			}
		}
		spyErr := (Scenario{Role: RoleSpy, Kind: k}).Validate()
		isSpy := false
		for _, s := range SpyKindNames() {
			if s == k {
				isSpy = true
			}
		}
		if isSpy && spyErr != nil {
			t.Errorf("spy kind %s rejected: %v", k, spyErr)
		}
		if !isSpy && (spyErr == nil || !strings.Contains(spyErr.Error(), "spy kind must be")) {
			t.Errorf("non-spy kind %s for role spy: err=%v", k, spyErr)
		}
	}
	for _, b := range BaselineNames() {
		if err := (Scenario{Role: RoleBaseline, Baseline: b}).Validate(); err != nil {
			t.Errorf("registered baseline %s rejected: %v", b, err)
		}
	}
	for _, mname := range MitigationNames() {
		if err := (Scenario{Role: RoleMitigation, Mitigation: mname}).Validate(); err != nil {
			t.Errorf("registered mitigation %s rejected: %v", mname, err)
		}
		if _, err := mitigationKind(mname); err != nil {
			t.Errorf("mitigationKind(%s): %v", mname, err)
		}
	}

	// Unknown names must surface as errors on every role, with the
	// registry vocabulary in the message.
	for _, role := range []string{RoleChannel, RoleMitigation} {
		err := (Scenario{Role: role, Kind: "sgx"}).Validate()
		if err == nil || !strings.Contains(err.Error(), "unknown channel kind") {
			t.Errorf("role %s with unknown kind: err=%v", role, err)
		}
		for _, k := range ChannelKindNames() {
			if err != nil && !strings.Contains(err.Error(), k) {
				t.Errorf("unknown-kind error does not list %s: %v", k, err)
			}
		}
	}
	if err := (Scenario{Role: RoleBaseline, Baseline: "sgx"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown baseline") {
		t.Errorf("unknown baseline: err=%v", err)
	}
	if err := (Scenario{Role: RoleMitigation, Kind: KindCores, Mitigation: "sgx"}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "unknown mitigation") {
		t.Errorf("unknown mitigation: err=%v", err)
	}
}

// TestRegistryDefaultsApplied: normalization reads per-kind defaults
// from the registry (clockmod's smaller payload), and the calibration
// depth follows the kind.
func TestRegistryDefaultsApplied(t *testing.T) {
	for _, ks := range kindRegistry {
		n := Scenario{Role: RoleChannel, Kind: ks.name}.Normalized()
		if n.Bits != ks.defaultBits {
			t.Errorf("kind %s: normalized bits %d, registry default %d", ks.name, n.Bits, ks.defaultBits)
		}
		if got := effectiveCalibReps(n); got != ks.defaultCalibReps {
			t.Errorf("kind %s: calib reps %d, registry default %d", ks.name, got, ks.defaultCalibReps)
		}
	}
	for _, bs := range baselineRegistry {
		n := Scenario{Role: RoleBaseline, Baseline: bs.name}.Normalized()
		if n.Bits != bs.defaultBits {
			t.Errorf("baseline %s: normalized bits %d, registry default %d", bs.name, n.Bits, bs.defaultBits)
		}
		if got := effectiveCalibReps(n); got != bs.defaultCalibReps {
			t.Errorf("baseline %s: calib reps %d, registry default %d", bs.name, got, bs.defaultCalibReps)
		}
	}
}

// TestFractionalMicrosecondParams: µs params keep their fractional part.
// A 24.9 µs retire slot runs 16 bits in 398.4 µs of simulated time, not
// in the 384 µs of a period truncated to 24 µs.
func TestFractionalMicrosecondParams(t *testing.T) {
	var s Scenario
	spec := `{"role":"channel","kind":"retire","bits":16,"seed":3,"params":{"slot_period_us":24.9}}`
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedSimUS != 398.4 {
		t.Fatalf("elapsed_sim_us = %g, want 398.4", res.ElapsedSimUS)
	}
	if got := microseconds(0.5); got != 500*units.Nanosecond {
		t.Fatalf("0.5 µs = %v, want 500ns", got)
	}
}

// TestNewKindConstraints: the adopted families' topology and knob rules.
func TestNewKindConstraints(t *testing.T) {
	// retire needs SMT: the 9700K profile has none.
	err := (Scenario{Role: RoleChannel, Kind: KindRetire, Processor: "Coffee Lake"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "requires an SMT processor") {
		t.Errorf("retire on SMT-less part: err=%v", err)
	}
	// clockmod needs two cores.
	err = (Scenario{Role: RoleChannel, Kind: KindClockMod, Params: &Params{Cores: 1}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "requires at least 2 cores") {
		t.Errorf("clockmod on one core: err=%v", err)
	}
	// clockmod's sender is one MSR write per window; there is no sender
	// loop to tune, so the override is rejected instead of ignored.
	err = (Scenario{Role: RoleChannel, Kind: KindClockMod, Params: &Params{SenderIters: 100}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "sender_iters is not valid for kind clockmod") {
		t.Errorf("clockmod sender_iters: err=%v", err)
	}
	// ... but the window knobs map and are accepted.
	if err := (Scenario{Role: RoleChannel, Kind: KindClockMod,
		Params: &Params{SlotPeriodUS: 200, ReceiverIters: 100, ReceiverOffsetUS: 20}}).Validate(); err != nil {
		t.Errorf("clockmod window knobs rejected: %v", err)
	}
	if err := (Scenario{Role: RoleChannel, Kind: KindRetire,
		Params: &Params{SenderIters: 32}}).Validate(); err != nil {
		t.Errorf("retire sender_iters rejected: %v", err)
	}
}

// TestSweepAxisRegistryValidation: enum axis values are checked against
// the registries at parse/validate time, so a typo or a kind the base
// role cannot run fails before any cell simulates.
func TestSweepAxisRegistryValidation(t *testing.T) {
	cases := []struct {
		name string
		sw   Sweep
		want string
	}{
		{"unknown kind", Sweep{Base: Scenario{Role: RoleChannel},
			Axes: SweepAxes{Kind: []string{KindCores, "sgx"}}},
			"not a registered channel kind"},
		{"non-spy kind for spy base", Sweep{Base: Scenario{Role: RoleSpy},
			Axes: SweepAxes{Kind: []string{KindSMT, KindRetire}}},
			"not valid for base role spy"},
		{"kind axis on baseline base", Sweep{Base: Scenario{Role: RoleBaseline, Baseline: BaselineTurboCC},
			Axes: SweepAxes{Kind: []string{KindCores}}},
			"kind axis is not valid for base role baseline"},
		{"unknown baseline", Sweep{Base: Scenario{Role: RoleBaseline},
			Axes: SweepAxes{Baseline: []string{"sgx"}}},
			"not a registered baseline"},
		{"unknown mitigation", Sweep{Base: Scenario{Role: RoleMitigation, Kind: KindCores},
			Axes: SweepAxes{Mitigation: []string{MitigationNone, "sgx"}}},
			"not a registered mitigation"},
	}
	for _, tc := range cases {
		err := tc.sw.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The full cross-family grid is valid on the default SMT part.
	ok := Sweep{
		Base: Scenario{Role: RoleMitigation, Bits: 16},
		Axes: SweepAxes{Kind: ChannelKindNames(), Mitigation: MitigationNames()},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("cross-family grid rejected: %v", err)
	}
	got, err := ok.CountCells()
	if err != nil {
		t.Errorf("cross-family grid count: %v", err)
	} else if got != len(ChannelKindNames())*len(MitigationNames()) {
		t.Errorf("cross-family grid cells = %d", got)
	}
}

// TestMitigationAliasesFoldToRegistry: every alias normalizes onto a
// registered canonical name.
func TestMitigationAliasesFoldToRegistry(t *testing.T) {
	for alias, canon := range mitigationAliases {
		if _, ok := mitigationByName[canon]; !ok {
			t.Errorf("alias %q folds to unregistered %q", alias, canon)
		}
		n := Scenario{Role: RoleMitigation, Kind: KindCores, Mitigation: alias}.Normalized()
		if n.Mitigation != canon {
			t.Errorf("alias %q normalized to %q, want %q", alias, n.Mitigation, canon)
		}
	}
}
