package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// A Sweep is the declarative description of a parameter grid: one base
// Scenario plus named axes whose cross-product expands into the cells
// of the grid. It is how the paper's table-shaped results (Table 6,
// Figs. 13-16 style comparisons of processors × channel kinds ×
// mitigations × noise levels) are requested as a single spec instead of
// hand-enumerated scenario arrays.
//
// Expansion is deterministic: axes iterate in the canonical order
// processor, kind, baseline, mitigation, bits, noise, coding, params,
// with the last-listed axis varying fastest (odometer order), so a
// sweep expands to the same cell sequence on every run, process, and
// transport. Filters drop unwanted cells (e.g. an SMT kind on a
// processor without SMT) without perturbing the order of the rest.
type Sweep struct {
	// Name is an optional human label for the sweep (not part of Hash).
	Name string `json:"name,omitempty"`
	// Base is the scenario every cell starts from. A field set by an
	// axis must be left unset here (Validate rejects the conflict).
	Base Scenario `json:"base"`
	// Axes are the grid dimensions; at least one must be non-empty.
	Axes SweepAxes `json:"axes"`
	// Filters drop cells whose normalized values match every set field
	// of any one filter (a skip-list, applied after expansion).
	Filters []SweepFilter `json:"filters,omitempty"`
	// GroupBy selects the axis subset the aggregate table groups by.
	// Empty means every axis the sweep uses, in canonical order.
	GroupBy []string `json:"group_by,omitempty"`
	// MaxCells caps the pre-filter expansion size. Zero means
	// DefaultMaxSweepCells; values above MaxSweepCells are invalid.
	MaxCells int `json:"max_cells,omitempty"`
	// Refine, when set, turns execution adaptive: a coarse strided pass
	// first, then only regions whose metric moves re-expand into finer
	// cells (see Refine). Unlike MaxCells it changes which cells run,
	// so it is part of the sweep's Hash.
	Refine *Refine `json:"refine,omitempty"`
}

// SweepAxes names the grid dimensions. Scalar axes override the
// same-named Scenario field in each cell; object axes (noise, coding,
// params) substitute the whole sub-object.
type SweepAxes struct {
	Processor  []string `json:"processor,omitempty"`
	Kind       []string `json:"kind,omitempty"`
	Baseline   []string `json:"baseline,omitempty"`
	Mitigation []string `json:"mitigation,omitempty"`
	Bits       []int    `json:"bits,omitempty"`
	Noise      []Noise  `json:"noise,omitempty"`
	Coding     []Coding `json:"coding,omitempty"`
	Params     []Params `json:"params,omitempty"`
}

// Canonical axis names, in canonical expansion order.
const (
	AxisProcessor  = "processor"
	AxisKind       = "kind"
	AxisBaseline   = "baseline"
	AxisMitigation = "mitigation"
	AxisBits       = "bits"
	AxisNoise      = "noise"
	AxisCoding     = "coding"
	AxisParams     = "params"
)

// AxisNames returns every recognized axis name in canonical order.
func AxisNames() []string {
	return []string{AxisProcessor, AxisKind, AxisBaseline, AxisMitigation,
		AxisBits, AxisNoise, AxisCoding, AxisParams}
}

// SweepFilter is one exclusion rule: a cell matching every set (non-zero)
// field is dropped. Only the scalar axes are filterable; values are
// compared after normalization (aliases folded, processors resolved to
// code names).
type SweepFilter struct {
	Processor  string `json:"processor,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Baseline   string `json:"baseline,omitempty"`
	Mitigation string `json:"mitigation,omitempty"`
	Bits       int    `json:"bits,omitempty"`
}

// Expansion bounds: a sweep defaults to at most DefaultMaxSweepCells
// cells and can raise its own cap to MaxSweepCells, never beyond — one
// spec cannot ask for an unbounded amount of simulation.
const (
	DefaultMaxSweepCells = 4096
	MaxSweepCells        = 65536
)

// Cell is one expanded grid point: the combined scenario plus the axis
// assignments that produced it (axis name → value label), which is what
// grouped aggregation keys on.
type Cell struct {
	// Index is the cell's position in the post-filter expansion order.
	Index int `json:"index"`
	// Scenario is the normalized combined spec.
	Scenario Scenario `json:"scenario"`
	// Axes labels the cell's coordinates: scalar axes use the
	// normalized value, object axes its compact JSON encoding.
	Axes map[string]string `json:"axes"`
}

// sweepAxis is one bound axis during expansion.
type sweepAxis struct {
	name  string
	n     int
	apply func(*Scenario, int)
	label func(int) string
}

// axes materializes the non-empty axes of a normalized sweep in
// canonical order.
func (sw Sweep) axes() []sweepAxis {
	var out []sweepAxis
	a := sw.Axes
	if len(a.Processor) > 0 {
		out = append(out, sweepAxis{AxisProcessor, len(a.Processor),
			func(s *Scenario, i int) { s.Processor = a.Processor[i] },
			func(i int) string { return a.Processor[i] }})
	}
	if len(a.Kind) > 0 {
		out = append(out, sweepAxis{AxisKind, len(a.Kind),
			func(s *Scenario, i int) { s.Kind = a.Kind[i] },
			func(i int) string { return a.Kind[i] }})
	}
	if len(a.Baseline) > 0 {
		out = append(out, sweepAxis{AxisBaseline, len(a.Baseline),
			func(s *Scenario, i int) { s.Baseline = a.Baseline[i] },
			func(i int) string { return a.Baseline[i] }})
	}
	if len(a.Mitigation) > 0 {
		out = append(out, sweepAxis{AxisMitigation, len(a.Mitigation),
			func(s *Scenario, i int) { s.Mitigation = a.Mitigation[i] },
			func(i int) string { return a.Mitigation[i] }})
	}
	if len(a.Bits) > 0 {
		out = append(out, sweepAxis{AxisBits, len(a.Bits),
			func(s *Scenario, i int) { s.Bits = a.Bits[i] },
			func(i int) string { return strconv.Itoa(a.Bits[i]) }})
	}
	if len(a.Noise) > 0 {
		out = append(out, sweepAxis{AxisNoise, len(a.Noise),
			func(s *Scenario, i int) { v := a.Noise[i]; s.Noise = &v },
			func(i int) string { return compactJSON(a.Noise[i]) }})
	}
	if len(a.Coding) > 0 {
		out = append(out, sweepAxis{AxisCoding, len(a.Coding),
			func(s *Scenario, i int) { v := a.Coding[i]; s.Coding = &v },
			func(i int) string { return compactJSON(a.Coding[i]) }})
	}
	if len(a.Params) > 0 {
		out = append(out, sweepAxis{AxisParams, len(a.Params),
			func(s *Scenario, i int) { v := a.Params[i]; s.Params = &v },
			func(i int) string { return compactJSON(a.Params[i]) }})
	}
	return out
}

// compactJSON labels an object axis value deterministically.
func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("scenario: axis label marshal: " + err.Error())
	}
	return string(b)
}

// Normalized returns the sweep with its axis values and filters
// canonicalized the way Scenario.Normalized canonicalizes the matching
// fields (processors to code names, mitigation aliases folded, enums
// lower-cased, group-by names lower-cased). The Base scenario is kept
// verbatim: its defaults are folded per-cell, after the axis values are
// applied, so an axis can set a field whose default would otherwise be
// materialized too early.
func (sw Sweep) Normalized() Sweep {
	n := sw
	n.Axes.Processor = mapStrings(sw.Axes.Processor, normalizeProcessor)
	n.Axes.Kind = mapStrings(sw.Axes.Kind, normalizeEnum)
	n.Axes.Baseline = mapStrings(sw.Axes.Baseline, normalizeEnum)
	n.Axes.Mitigation = mapStrings(sw.Axes.Mitigation, normalizeMitigation)
	if len(sw.Filters) > 0 {
		n.Filters = make([]SweepFilter, len(sw.Filters))
		for i, f := range sw.Filters {
			n.Filters[i] = SweepFilter{
				Processor:  normalizeFilterProcessor(f.Processor),
				Kind:       normalizeEnum(f.Kind),
				Baseline:   normalizeEnum(f.Baseline),
				Mitigation: normalizeMitigation(f.Mitigation),
				Bits:       f.Bits,
			}
		}
	}
	n.GroupBy = mapStrings(sw.GroupBy, normalizeEnum)
	n.Refine = normalizedRefine(sw.Refine)
	return n
}

func mapStrings(in []string, f func(string) string) []string {
	if len(in) == 0 {
		return in
	}
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = f(s)
	}
	return out
}

func normalizeEnum(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func normalizeMitigation(s string) string {
	s = normalizeEnum(s)
	if canon, ok := mitigationAliases[s]; ok {
		return canon
	}
	return s
}

// normalizeProcessor resolves a marketing or code name to the code name
// via the one Scenario normalization path, so axis values and spec
// fields canonicalize identically. Unknown names pass through for
// Validate to reject with the processor registry's error.
func normalizeProcessor(s string) string {
	if strings.TrimSpace(s) == "" {
		return ""
	}
	return Scenario{Role: RoleChannel, Processor: s}.Normalized().Processor
}

func normalizeFilterProcessor(s string) string {
	if strings.TrimSpace(s) == "" {
		return ""
	}
	return normalizeProcessor(s)
}

// matches reports whether a normalized cell scenario matches the
// (normalized) filter: every set field must agree.
func (f SweepFilter) matches(n Scenario) bool {
	if f == (SweepFilter{}) {
		return false
	}
	if f.Processor != "" && f.Processor != n.Processor {
		return false
	}
	if f.Kind != "" && f.Kind != n.Kind {
		return false
	}
	if f.Baseline != "" && f.Baseline != n.Baseline {
		return false
	}
	if f.Mitigation != "" && f.Mitigation != n.Mitigation {
		return false
	}
	if f.Bits != 0 && f.Bits != n.Bits {
		return false
	}
	return true
}

// effectiveMaxCells resolves the expansion cap.
func (sw Sweep) effectiveMaxCells() int {
	if sw.MaxCells > 0 {
		return sw.MaxCells
	}
	return DefaultMaxSweepCells
}

// EffectiveGroupBy returns the axis subset the aggregate groups by:
// the spec's group_by, or every axis the sweep uses, in canonical order.
func (sw Sweep) EffectiveGroupBy() []string {
	n := sw.Normalized()
	if len(n.GroupBy) > 0 {
		return n.GroupBy
	}
	axes := n.axes()
	out := make([]string, len(axes))
	for i, ax := range axes {
		out[i] = ax.name
	}
	return out
}

// validateStructure checks everything about the sweep that does not
// require expanding cells. It expects a normalized sweep.
func (sw Sweep) validateStructure() (cells int, err error) {
	axes := sw.axes()
	if len(axes) == 0 {
		return 0, fmt.Errorf("sweep: no axes; a sweep needs at least one non-empty axis (a single run is a scenario)")
	}
	if sw.MaxCells < 0 {
		return 0, fmt.Errorf("sweep: max_cells must be non-negative, got %d", sw.MaxCells)
	}
	if sw.MaxCells > MaxSweepCells {
		return 0, fmt.Errorf("sweep: max_cells %d exceeds the hard limit %d", sw.MaxCells, MaxSweepCells)
	}
	for _, vals := range [][]string{sw.Axes.Processor, sw.Axes.Kind, sw.Axes.Baseline, sw.Axes.Mitigation} {
		for _, v := range vals {
			if v == "" {
				return 0, fmt.Errorf("sweep: axis values must be non-empty strings (an empty value would silently take the field's default)")
			}
		}
	}
	// Enum axes are checked against the registries here, at parse time,
	// so a typo or a kind the base role cannot run fails before any cell
	// simulates (not |grid| cells into the sweep).
	baseRole := strings.ToLower(strings.TrimSpace(sw.Base.Role))
	for _, v := range sw.Axes.Kind {
		ks, ok := kindByName[v]
		if !ok {
			return 0, fmt.Errorf("sweep: kind axis value %q is not a registered channel kind (%s)", v, orList(ChannelKindNames()))
		}
		switch baseRole {
		case RoleSpy:
			if !ks.spyRole {
				return 0, fmt.Errorf("sweep: kind axis value %q is not valid for base role spy (spy kinds: %s)", v, orList(SpyKindNames()))
			}
		case RoleBaseline, RoleExperiment:
			return 0, fmt.Errorf("sweep: a kind axis is not valid for base role %s", baseRole)
		}
	}
	for _, v := range sw.Axes.Baseline {
		if _, ok := baselineByName[v]; !ok {
			return 0, fmt.Errorf("sweep: baseline axis value %q is not a registered baseline (%s)", v, orList(BaselineNames()))
		}
	}
	for _, v := range sw.Axes.Mitigation {
		if _, ok := mitigationByName[v]; !ok {
			return 0, fmt.Errorf("sweep: mitigation axis value %q is not a registered mitigation (%s)", v, orList(MitigationNames()))
		}
	}
	for _, b := range sw.Axes.Bits {
		if b <= 0 {
			return 0, fmt.Errorf("sweep: bits axis values must be positive, got %d", b)
		}
	}
	cells = 1
	for _, ax := range axes {
		seen := map[string]bool{}
		for i := 0; i < ax.n; i++ {
			l := ax.label(i)
			if seen[l] {
				return 0, fmt.Errorf("sweep: axis %s repeats value %q (duplicate cells would double-count in aggregates)", ax.name, l)
			}
			seen[l] = true
		}
		if cells > MaxSweepCells/ax.n {
			return 0, fmt.Errorf("sweep: grid exceeds %d cells", MaxSweepCells)
		}
		cells *= ax.n
	}
	if max := sw.effectiveMaxCells(); cells > max {
		return 0, fmt.Errorf("sweep: grid expands to %d cells, above the cap of %d (raise max_cells up to %d or shrink an axis)", cells, max, MaxSweepCells)
	}
	// An axis overriding a field the base also sets would silently
	// shadow the base value — reject the ambiguity.
	for field, both := range map[string]bool{
		AxisProcessor:  len(sw.Axes.Processor) > 0 && sw.Base.Processor != "",
		AxisKind:       len(sw.Axes.Kind) > 0 && sw.Base.Kind != "",
		AxisBaseline:   len(sw.Axes.Baseline) > 0 && sw.Base.Baseline != "",
		AxisMitigation: len(sw.Axes.Mitigation) > 0 && sw.Base.Mitigation != "",
		AxisBits:       len(sw.Axes.Bits) > 0 && sw.Base.Bits != 0,
		AxisNoise:      len(sw.Axes.Noise) > 0 && sw.Base.Noise != nil,
		AxisCoding:     len(sw.Axes.Coding) > 0 && sw.Base.Coding != nil,
		AxisParams:     len(sw.Axes.Params) > 0 && sw.Base.Params != nil,
	} {
		if both {
			return 0, fmt.Errorf("sweep: %s is both a base field and an axis; leave the base field unset", field)
		}
	}
	if len(sw.Axes.Bits) > 0 && sw.Base.Payload != "" {
		return 0, fmt.Errorf("sweep: a bits axis is exclusive with a base payload")
	}
	for i, f := range sw.Filters {
		if f == (SweepFilter{}) {
			return 0, fmt.Errorf("sweep: filters[%d] is empty and would drop every cell", i)
		}
	}
	used := map[string]bool{}
	axisSizes := map[string]int{}
	for _, ax := range axes {
		used[ax.name] = true
		axisSizes[ax.name] = ax.n
	}
	seenGroup := map[string]bool{}
	for _, g := range sw.GroupBy {
		if !used[g] {
			return 0, fmt.Errorf("sweep: group_by axis %q is not an axis of this sweep (have %v)", g, keysOf(used))
		}
		if seenGroup[g] {
			return 0, fmt.Errorf("sweep: group_by repeats axis %q", g)
		}
		seenGroup[g] = true
	}
	if sw.Refine != nil {
		if err := validateRefine(sw.Refine, axisSizes, sw.EffectiveGroupBy()); err != nil {
			return 0, err
		}
	}
	return cells, nil
}

// keysOf returns the used-axis names in canonical order.
func keysOf(used map[string]bool) []string {
	var out []string
	for _, name := range AxisNames() {
		if used[name] {
			out = append(out, name)
		}
	}
	return out
}

// AxisLabels returns each used axis's value labels in axis order,
// exactly as cells carry them in Cell.Axes (scalar labels normalized,
// object labels compact JSON) — the label→position mapping the
// refinement controller scores intervals with. It normalizes first.
func (sw Sweep) AxisLabels() (map[string][]string, error) {
	n := sw.Normalized()
	if _, err := n.validateStructure(); err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, ax := range n.axes() {
		vals := make([]string, ax.n)
		for i := range vals {
			vals[i] = ax.label(i)
		}
		out[ax.name] = vals
	}
	return out, nil
}

// CellIterator yields a sweep's cells one at a time, in expansion
// order, without materializing the grid — the pull source the streaming
// engine consumes. Obtain one from Sweep.Cells.
type CellIterator struct {
	sw     Sweep
	axes   []sweepAxis
	labels [][]string // per axis, each value's label, computed once
	// namePrefix starts every cell's name: "<sweep name>: ", or empty.
	namePrefix string
	odo        []int // current axis indices; nil once exhausted
	started    bool
	next       int // post-filter index of the next yielded cell
	// spec is the cell being assembled: the axis setters write through
	// a pointer, so it lives here rather than escaping once per cell.
	spec *Scenario
	// bare skips the cells' axis labels and names, for a pass that only
	// counts and validates the cells (CountCells).
	bare bool
}

// Cells validates the sweep's structure and returns an iterator over
// its cells. Each yielded cell is normalized and validated; an invalid
// cell (one the filters should have dropped) surfaces as the iterator's
// error.
func (sw Sweep) Cells() (*CellIterator, error) {
	n := sw.Normalized()
	if _, err := n.validateStructure(); err != nil {
		return nil, err
	}
	axes := n.axes()
	labels := make([][]string, len(axes))
	for ai, ax := range axes {
		labels[ai] = make([]string, ax.n)
		for i := range labels[ai] {
			labels[ai][i] = ax.label(i)
		}
	}
	it := &CellIterator{sw: n, axes: axes, labels: labels, odo: make([]int, len(axes)), spec: new(Scenario)}
	if n.Name != "" {
		it.namePrefix = n.Name + ": "
	}
	return it, nil
}

// Next returns the next cell. ok is false when the grid is exhausted or
// an invalid cell was hit (err tells the two apart).
func (it *CellIterator) Next() (cell Cell, ok bool, err error) {
	for {
		if it.odo == nil {
			return Cell{}, false, nil
		}
		if it.started {
			// Advance the odometer, last axis fastest.
			i := len(it.odo) - 1
			for ; i >= 0; i-- {
				it.odo[i]++
				if it.odo[i] < it.axes[i].n {
					break
				}
				it.odo[i] = 0
			}
			if i < 0 {
				it.odo = nil
				return Cell{}, false, nil
			}
		}
		it.started = true

		*it.spec = it.sw.Base
		for ai, ax := range it.axes {
			ax.apply(it.spec, it.odo[ai])
		}
		n := it.spec.Normalized()
		if it.filtered(n) {
			continue
		}
		if err := n.validate(); err != nil {
			return Cell{}, false, fmt.Errorf("sweep: cell %d (%s): %w (add a filter to drop the combination)", it.next, it.coordinates(n, ""), err)
		}
		cell = Cell{Index: it.next, Scenario: n}
		it.next++
		if it.bare {
			return cell, true, nil
		}
		cell.Axes = make(map[string]string, len(it.axes))
		for ai, ax := range it.axes {
			cell.Axes[ax.name] = it.label(n, ai)
		}
		cell.Scenario.Name = it.coordinates(n, it.namePrefix)
		return cell, true, nil
	}
}

// filtered reports whether a filter drops the normalized cell n.
func (it *CellIterator) filtered(n Scenario) bool {
	for _, f := range it.sw.Filters {
		if f.matches(n) {
			return true
		}
	}
	return false
}

// label returns axis ai's label for the current cell. Scalar axes are
// re-labelled with the normalized cell's values, so the aggregation key
// matches the result envelope ("Cannon Lake" the marketing name and
// "Cannon Lake" the code name are one group).
func (it *CellIterator) label(n Scenario, ai int) string {
	switch it.axes[ai].name {
	case AxisProcessor:
		return n.Processor
	case AxisKind:
		return n.Kind
	case AxisBaseline:
		return n.Baseline
	case AxisMitigation:
		return n.Mitigation
	}
	return it.labels[ai][it.odo[ai]]
}

// coordinates renders the current cell's axis assignments as
// "axis=label" pairs joined by spaces, in axis order, after prefix.
func (it *CellIterator) coordinates(n Scenario, prefix string) string {
	size := len(prefix) + len(it.axes) - 1
	for ai, ax := range it.axes {
		size += len(ax.name) + 1 + len(it.label(n, ai))
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(prefix)
	for ai, ax := range it.axes {
		if ai > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(ax.name)
		b.WriteByte('=')
		b.WriteString(it.label(n, ai))
	}
	return b.String()
}

// EachCell streams the sweep's cells through fn in expansion order,
// stopping at the first error (an invalid cell, or fn's own).
func (sw Sweep) EachCell(fn func(Cell) error) error {
	return sw.eachCell(false, fn)
}

// eachCell is EachCell; bare cells carry no axis labels or name.
func (sw Sweep) eachCell(bare bool, fn func(Cell) error) error {
	it, err := sw.Cells()
	if err != nil {
		return err
	}
	it.bare = bare
	for {
		cell, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(cell); err != nil {
			return err
		}
	}
}

// Expand materializes every cell. Sweeps are capped (MaxCells), so this
// is safe for CLI/introspection use; the execution paths stream through
// EachCell/Cells instead and never hold the whole grid.
func (sw Sweep) Expand() ([]Cell, error) {
	var out []Cell
	if err := sw.EachCell(func(c Cell) error { out = append(out, c); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// Validate checks the sweep: its structure (axes, filters, cap,
// group-by, base/axis conflicts), every expanded cell, and that at
// least one cell survives the filters — all in one expansion pass. It
// normalizes first, so a raw user spec validates directly.
func (sw Sweep) Validate() error {
	_, err := sw.CountCells()
	return err
}

// CountCells returns the number of post-filter cells the sweep expands
// to, validating the sweep (structure and every cell) in the same
// single pass.
func (sw Sweep) CountCells() (int, error) {
	n := 0
	if err := sw.eachCell(true, func(Cell) error { n++; return nil }); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("sweep: filters drop every cell")
	}
	return n, nil
}

// Hash returns a stable 16-hex-character content hash of the normalized
// sweep, excluding the display labels (sweep name, base name), the
// seeds (the base's pinned seed and the batch base seed are carried
// alongside results, exactly like Scenario.Hash), and the expansion cap
// (which bounds work without changing any cell). Two sweeps whose JSON
// differs only in axis-map key order hash identically, because the spec
// is hashed from its parsed (ordered-struct) form.
func (sw Sweep) Hash() string {
	n := sw.Normalized()
	n.Name = ""
	n.Base.Name = ""
	n.Base.Seed = 0
	n.MaxCells = 0
	b, err := json.Marshal(n)
	if err != nil {
		panic("scenario: sweep hash marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Describe returns a short human label for logs and timing output.
func (sw Sweep) Describe() string {
	if sw.Name != "" {
		return "sweep " + sw.Name
	}
	n := sw.Normalized()
	var dims []string
	for _, ax := range n.axes() {
		dims = append(dims, fmt.Sprintf("%s×%d", ax.name, ax.n))
	}
	desc := "sweep " + strings.Join(dims, " ")
	if n.Refine != nil {
		desc += " (refined)"
	}
	return desc
}

// ParseSweep parses one JSON sweep object, rejecting unknown fields and
// trailing data — the one strict decoder the CLI and the HTTP v1 layer
// share, mirroring ParseSpecs.
func ParseSweep(data []byte) (Sweep, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return Sweep{}, fmt.Errorf("empty sweep spec; give a sweep object")
	}
	if trimmed[0] == '[' {
		return Sweep{}, fmt.Errorf("a sweep spec is a single object, not an array (the axes provide the fan-out)")
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	var sw Sweep
	if err := dec.Decode(&sw); err != nil {
		return Sweep{}, err
	}
	if dec.More() {
		return Sweep{}, fmt.Errorf("trailing data after the sweep object")
	}
	return sw, nil
}
