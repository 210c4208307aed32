// Package batch runs parameter sweeps: many independent simulations of one
// base scenario across the cross-product of configuration axes (RTOS engine,
// scheduling policy, processor speed, overhead sets, fault seeds).
//
// Each simulation owns a private kernel and is internally single-threaded, so
// the sweep parallelizes perfectly across a worker pool of goroutines — this
// is the design-space-exploration workflow of the paper's conclusion ("the
// model allows to easily test different configurations: processor change,
// scheduling algorithm, ...") executed at batch scale. Results are ordered by
// variant index regardless of worker interleaving, so a parallel sweep is
// byte-identical to a serial one.
package batch

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Spec describes a sweep: the base scenario and the axes to cross. An empty
// axis contributes a single "keep the scenario's value" element, so the
// variant count is the product of max(1, len(axis)) over all axes.
type Spec struct {
	// Scenario is the path of the base scenario JSON. The library itself
	// works on raw bytes (see Sweep); the path is resolved by the caller.
	Scenario string `json:"scenario"`
	// Horizon overrides the base scenario's horizon for every run (optional).
	Horizon scenario.Duration `json:"horizon"`
	// Engines lists RTOS engine overrides: "procedural" or "threaded".
	Engines []string `json:"engines"`
	// TaskEngines lists overrides of the task engine that runs every
	// software task's compiled body: "goroutine" or "continuation". Both
	// simulate identically; only the kernel activation count differs.
	TaskEngines []string `json:"taskEngines"`
	// Policies lists scheduling-policy overrides: "priority", "fifo", "rr"
	// or "edf".
	Policies []string `json:"policies"`
	// Quantum is the round-robin time slice used when a Policies entry is
	// "rr"; required in that case.
	Quantum scenario.Duration `json:"quantum"`
	// Speeds lists processor speed-factor overrides (applied to every
	// processor).
	Speeds []float64 `json:"speeds"`
	// Overheads lists RTOS overhead sets (applied to every processor).
	Overheads []scenario.OverheadSpec `json:"overheads"`
	// Cores lists core-count overrides (applied to every processor). A
	// variant whose count or domain breaks a task's affinity fails with the
	// validation error, like any other invalid variant.
	Cores []int `json:"cores"`
	// Domains lists scheduling-domain overrides: "partitioned" or "global"
	// (applied to every processor).
	Domains []string `json:"domains"`
	// Seeds lists fault-seed overrides (applied to every fault definition).
	Seeds []int64 `json:"seeds"`
	// Workers bounds the worker pool (0: GOMAXPROCS).
	Workers int `json:"workers"`
}

// ParseSpec decodes a sweep description, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return &s, nil
}

// Variant is one point of the sweep cross-product. Zero/empty override
// fields keep the base scenario's value; OverheadIdx is -1 when no overhead
// set applies.
type Variant struct {
	Index       int
	Engine      string
	TaskEngine  string
	Policy      string
	Quantum     sim.Time
	Speed       float64
	OverheadIdx int
	Overheads   *scenario.OverheadSpec
	Cores       int
	Domain      string
	Seed        *int64
}

// Label renders the variant's overrides compactly for reports, e.g.
// "engine=threaded policy=edf speed=2 ov=1 seed=7"; "base" when nothing is
// overridden.
func (v Variant) Label() string {
	var parts []string
	if v.Engine != "" {
		parts = append(parts, "engine="+v.Engine)
	}
	if v.TaskEngine != "" {
		parts = append(parts, "taskengine="+v.TaskEngine)
	}
	if v.Policy != "" {
		parts = append(parts, "policy="+v.Policy)
	}
	if v.Speed != 0 {
		parts = append(parts, fmt.Sprintf("speed=%g", v.Speed))
	}
	if v.OverheadIdx >= 0 {
		parts = append(parts, fmt.Sprintf("ov=%d", v.OverheadIdx))
	}
	if v.Cores != 0 {
		parts = append(parts, fmt.Sprintf("cores=%d", v.Cores))
	}
	if v.Domain != "" {
		parts = append(parts, "domain="+v.Domain)
	}
	if v.Seed != nil {
		parts = append(parts, fmt.Sprintf("seed=%d", *v.Seed))
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, " ")
}

// Expand builds the deterministic cross-product of the spec's axes, nesting
// engines, then task engines, then policies, speeds, overhead sets, core
// counts, domains, and seeds. Variant indices follow that order.
func (s *Spec) Expand() ([]Variant, error) {
	var variants []Variant
	for _, eng := range orKeep(s.Engines) {
		for _, teng := range orKeep(s.TaskEngines) {
			for _, pol := range orKeep(s.Policies) {
				for _, sp := range orKeep(s.Speeds) {
					for ov, ovs := range refs(s.Overheads) {
						for _, nc := range orKeep(s.Cores) {
							for _, dom := range orKeep(s.Domains) {
								for _, seed := range refs(s.Seeds) {
									v := Variant{Index: len(variants), Engine: eng, TaskEngine: teng,
										Policy: pol, Quantum: s.Quantum.Time(), Speed: sp,
										OverheadIdx: -1, Overheads: ovs, Cores: nc, Domain: dom, Seed: seed}
									if ovs != nil {
										v.OverheadIdx = ov
									}
									if err := s.override(v).Check(); err != nil {
										return nil, fmt.Errorf("batch: %w", err)
									}
									variants = append(variants, v)
								}
							}
						}
					}
				}
			}
		}
	}
	return variants, nil
}

// orKeep turns an empty axis into the single keep-base-value element, the
// zero value.
func orKeep[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// refs is orKeep for the axes a variant refers to by pointer: nil keeps the
// base value.
func refs[T any](axis []T) []*T {
	if len(axis) == 0 {
		return []*T{nil}
	}
	out := make([]*T, len(axis))
	for i := range axis {
		out[i] = &axis[i]
	}
	return out
}

// override is the variant's edit of the base description, the spec horizon
// included.
func (s *Spec) override(v Variant) scenario.Override {
	o := scenario.Override{
		Engine:     v.Engine,
		TaskEngine: v.TaskEngine,
		Policy:     v.Policy,
		Quantum:    v.Quantum,
		Speed:      v.Speed,
		Overheads:  v.Overheads,
		Cores:      v.Cores,
		Domain:     v.Domain,
		Seed:       v.Seed,
	}
	if h := s.Horizon.Time(); h > 0 {
		o.Horizon = &h
	}
	return o
}
