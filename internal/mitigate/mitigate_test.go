package mitigate

import (
	"context"
	"math"
	"testing"

	"ichannels/internal/core"
	"ichannels/internal/model"
	"ichannels/internal/soc"
)

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		None: "None", PerCoreVR: "Per-core VR",
		ImprovedThrottling: "Improved Throttling", SecureMode: "Secure-Mode",
	}
	for k, n := range names {
		if k.String() != n {
			t.Errorf("%d → %q", int(k), k.String())
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind must still format")
	}
}

func TestOverheadsMatchTable1(t *testing.T) {
	if PerCoreVR.Overhead() != "11%-13% more area" {
		t.Error("per-core VR overhead")
	}
	if SecureMode.Overhead() != "4%-11% additional power" {
		t.Error("secure-mode overhead")
	}
	if ImprovedThrottling.Overhead() != "Some design effort" {
		t.Error("improved throttling overhead")
	}
}

func TestMachineOptionsApplyMitigations(t *testing.T) {
	p := model.CannonLake8121U()
	if !MachineOptions(PerCoreVR, p, 1).PerCoreVR {
		t.Error("per-core VR not applied")
	}
	if MachineOptions(PerCoreVR, p, 1).VROverride == nil {
		t.Error("per-core VR must swap in an LDO")
	}
	if !MachineOptions(ImprovedThrottling, p, 1).PerThreadThrottle {
		t.Error("improved throttling not applied")
	}
	if !MachineOptions(SecureMode, p, 1).SecureMode {
		t.Error("secure mode not applied")
	}
	base := MachineOptions(None, p, 1)
	if base.PerCoreVR || base.PerThreadThrottle || base.SecureMode {
		t.Error("baseline must not carry mitigations")
	}
}

func TestEvaluateValidation(t *testing.T) {
	p := model.CannonLake8121U()
	open := func(m *soc.Machine) (Channel, error) { return core.New(m, core.DefaultParams(core.SameThread, p)) }
	if _, err := Evaluate(context.Background(), nil, None, "thread", p, 0, 1, open); err == nil {
		t.Fatal("zero bits accepted")
	}
	if _, err := Evaluate(context.Background(), nil, None, "thread", p, 3, 1, open); err == nil {
		t.Fatal("odd bits accepted")
	}
}

// TestGradeEdges pins the verdict rule at its cutoffs: BER up to 0.03 is
// unaffected, above it partial, from 0.35 mitigated with no goodput, and
// a failed calibration is mitigated at chance BER.
func TestGradeEdges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tr      *core.TransmitResult
		verdict Verdict
		ber     float64
		bps     float64
	}{
		{"unaffected at 0.03", &core.TransmitResult{BER: 0.03, ThroughputBPS: 1000}, Unaffected, 0.03, 970},
		{"partial above 0.03", &core.TransmitResult{BER: 0.0301, ThroughputBPS: 1000}, Partial, 0.0301, 969.9},
		{"mitigated at 0.35", &core.TransmitResult{BER: 0.35, ThroughputBPS: 1000}, Mitigated, 0.35, 0},
		{"calibration failed", nil, Mitigated, 0.5, 0},
	} {
		v, ber, bps := grade(tc.tr)
		if v != tc.verdict || ber != tc.ber || math.Abs(bps-tc.bps) > 1e-9 {
			t.Errorf("%s: grade = (%v, %g, %g), want (%v, %g, %g)", tc.name, v, ber, bps, tc.verdict, tc.ber, tc.bps)
		}
	}
}

// TestTable1Matrix verifies the paper's Table 1 verdicts hold on the
// attacked machines (the repository's central security claim).
func TestTable1Matrix(t *testing.T) {
	p := model.CannonLake8121U()
	assessments, err := EvaluateAll(p, 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]string]Verdict{}
	for _, a := range assessments {
		got[[2]string{a.Mitigation.String(), a.Channel}] = a.Verdict
	}
	want := map[[2]string]Verdict{
		{"None", "IccThreadCovert"}:                Unaffected,
		{"None", "IccSMTcovert"}:                   Unaffected,
		{"None", "IccCoresCovert"}:                 Unaffected,
		{"Per-core VR", "IccThreadCovert"}:         Partial,
		{"Per-core VR", "IccSMTcovert"}:            Partial,
		{"Per-core VR", "IccCoresCovert"}:          Mitigated,
		{"Improved Throttling", "IccThreadCovert"}: Unaffected,
		{"Improved Throttling", "IccSMTcovert"}:    Mitigated,
		{"Improved Throttling", "IccCoresCovert"}:  Unaffected,
		{"Secure-Mode", "IccThreadCovert"}:         Mitigated,
		{"Secure-Mode", "IccSMTcovert"}:            Mitigated,
		{"Secure-Mode", "IccCoresCovert"}:          Mitigated,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%v × %v: verdict %v, want %v", k[0], k[1], got[k], v)
		}
	}
}

func TestSMTSkippedOnNonSMTPart(t *testing.T) {
	p := model.CoffeeLake9700K()
	p.Cores = 2 // keep the matrix small
	assessments, err := EvaluateAll(p, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range assessments {
		if a.Channel == core.SMT.String() {
			t.Fatal("SMT channel evaluated on a part without SMT")
		}
	}
}
