// Package registry is the single catalog of analysable protocol targets.
//
// Each protocol package contributes one Descriptor per workload variant via
// Register (typically from an init function); cmd/achilles, cmd/benchtab,
// cmd/trojan-inject, internal/experiments and the conformance suite all
// resolve targets from here instead of hard-coding per-protocol switches.
// Adding a workload is therefore a one-package drop-in: write the NL models,
// the ground-truth oracle and the fuzz generator, call Register, and every
// driver, experiment and standing test picks the target up by name.
//
// A Descriptor bundles everything Achilles knows about one target:
//
//   - Target: the NL server/client sources compiled into a core.Target
//     (message layout, exec options, shared state);
//   - Analysis: default analysis budgets/options for the target;
//   - DefaultState: the canonical concrete world for local state, used by
//     the fuzz baseline and the oracle when no per-report world is known;
//   - IsTrojan / ClassKey: the ground-truth Trojan oracle and class
//     bucketing used by the §6.2 baselines and the cross-validation suite;
//   - ImplAccepts: replay of a message through the protocol's concrete Go
//     implementation — the §4 soundness guard as code;
//   - Fuzz: the black-box fuzz generator and default campaign size.
package registry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"achilles/internal/core"
	"achilles/internal/fuzz"
	"achilles/internal/wire"
)

// State is a concrete world for protocol-local state: variable name (as
// declared in the NL model, without the engine's "state_" prefix) to value.
type State map[string]int64

// FuzzSpec configures the black-box fuzzing baseline for a target.
type FuzzSpec struct {
	// Generator produces one random message.
	Generator fuzz.Generator
	// Tests is the default campaign size.
	Tests int
}

// Descriptor is one registered protocol target.
type Descriptor struct {
	// Name is the unique registry key (e.g. "fsp", "raft").
	Name string
	// Aliases are additional lookup keys kept for CLI compatibility.
	Aliases []string
	// Summary is a one-line description shown by listing commands.
	Summary string
	// Target builds a new core.Target value on every call. Its compiled
	// units come from lang.MustCompile's memo: every analysis of the target
	// shares them and only reads them.
	Target func() core.Target
	// Analysis carries the target's default analysis options (budgets,
	// verification toggles). Callers overlay Mode/Parallelism on top.
	Analysis core.AnalysisOptions
	// DefaultState is the canonical concrete world for the target's local
	// state; nil for stateless targets.
	DefaultState State
	// ExpectTrojans records whether the target carries a seeded
	// vulnerability the analysis must find (false for the -fixed variants).
	ExpectTrojans bool
	// IsTrojan is the ground-truth oracle: does the concrete message, in
	// the given state world (nil = DefaultState), belong to a Trojan class?
	// Nil when the target has no closed-form oracle.
	IsTrojan func(msg []int64, st State) bool
	// ClassKey buckets a Trojan message into its class for distinct-class
	// accounting; nil falls back to the full message rendering.
	ClassKey func(msg []int64) string
	// ImplAccepts replays the message through the protocol's concrete Go
	// implementation in the given state world (nil = DefaultState) and
	// reports whether the implementation accepted it. Nil when the target
	// has no concrete implementation.
	ImplAccepts func(msg []int64, st State) bool
	// Fuzz configures the black-box baseline; nil when the target is not
	// fuzzable.
	Fuzz *FuzzSpec
	// Wire is the lift layer bridging the target's analysis vectors and its
	// real wire format; nil for NL-only targets whose messages never leave
	// the model domain. When set, trojan vectors can be lowered to concrete
	// frame bytes and replayed through a byte-speaking implementation.
	Wire *wire.Lift
}

// ModeSet renders the target's capability set for listings: which kinds of
// evidence the registry can produce for it beyond the symbolic analysis
// every target gets. "wire" marks byte-level targets (messages lower to a
// real frame format), "oracle" a closed-form ground-truth oracle, "impl"
// concrete-implementation replay, "fuzz" a black-box baseline.
func (d Descriptor) ModeSet() string {
	modes := []string{"nl"}
	if d.Wire != nil {
		modes = append(modes, "wire")
	}
	if d.IsTrojan != nil {
		modes = append(modes, "oracle")
	}
	if d.ImplAccepts != nil {
		modes = append(modes, "impl")
	}
	if d.Fuzz != nil {
		modes = append(modes, "fuzz")
	}
	return strings.Join(modes, "+")
}

// FireDrillFunc runs a live fire drill for a target: start a concrete
// server on addr, inject every discovered Trojan, and write a report.
type FireDrillFunc func(addr string, out io.Writer) error

var (
	mu         sync.RWMutex
	byName     = map[string]*Descriptor{}
	names      []string // registration order of canonical names
	fireDrills = map[string]FireDrillFunc{}
)

// Register adds a descriptor to the registry. It panics on an empty or
// duplicate name or alias, or on a missing Target constructor — these are
// programming errors in a protocol package's init.
func Register(d Descriptor) {
	mu.Lock()
	defer mu.Unlock()
	if d.Name == "" {
		panic("registry: descriptor with empty name")
	}
	if d.Target == nil {
		panic("registry: descriptor " + d.Name + " has no Target constructor")
	}
	keys := append([]string{d.Name}, d.Aliases...)
	seen := map[string]bool{}
	for _, k := range keys {
		if _, dup := byName[k]; dup || seen[k] {
			panic("registry: duplicate target name " + k)
		}
		seen[k] = true
	}
	dd := d
	for _, k := range keys {
		byName[k] = &dd
	}
	names = append(names, d.Name)
}

// Lookup resolves a target by name or alias.
func Lookup(name string) (Descriptor, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := byName[name]
	if !ok {
		return Descriptor{}, false
	}
	return *d, true
}

// MustLookup is Lookup for names known to be registered; it panics with the
// available names otherwise.
func MustLookup(name string) Descriptor {
	d, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("registry: unknown target %q (have %v)", name, Names()))
	}
	return d
}

// All returns every registered descriptor, sorted by canonical name.
func All() []Descriptor {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Descriptor, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted canonical target names.
func Names() []string {
	var out []string
	for _, d := range All() {
		out = append(out, d.Name)
	}
	return out
}

// RegisterFireDrill attaches a live fire drill to a registered target.
func RegisterFireDrill(name string, fn FireDrillFunc) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := byName[name]; !ok {
		panic("registry: fire drill for unregistered target " + name)
	}
	if _, dup := fireDrills[name]; dup {
		panic("registry: duplicate fire drill for " + name)
	}
	fireDrills[name] = fn
}

// FireDrill returns the live fire drill for a target, if one is registered.
func FireDrill(name string) (FireDrillFunc, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := byName[name]
	if !ok {
		return nil, false
	}
	fn, ok := fireDrills[d.Name]
	return fn, ok
}

// FireDrillNames returns the sorted names of targets with a live fire drill.
func FireDrillNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for n := range fireDrills {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Derive returns a campaign-local variant of d: the same protocol
// scaffolding (analysis defaults, local-state world, message layout via the
// base Target), but with the built target transformed — the mutation engine
// derives one descriptor per generated server mutant this way. The derived
// descriptor keeps its own synthetic identity: InputFingerprint hashes the
// transformed target's canonical NL sources, so two variants differ in
// fingerprint exactly when their models differ.
//
// The ground-truth oracle, concrete-impl replay and fuzz spec are
// deliberately dropped: they describe the unmutated protocol and would lie
// about a variant. ExpectTrojans is false for the same reason. Derived
// descriptors are not registered globally — pass them to a campaign via
// campaign.Options.Extra.
func (d Descriptor) Derive(name, summary string, transform func(core.Target) core.Target) Descriptor {
	base := d.Target
	return Descriptor{
		Name:    name,
		Summary: summary,
		Target: func() core.Target {
			t := base()
			t.Name = name
			if transform != nil {
				t = transform(t)
			}
			return t
		},
		Analysis:     d.Analysis,
		DefaultState: d.DefaultState,
		// The wire schema survives derivation: mutants of a byte-level target
		// still speak the same frame format, so their vectors stay lowerable.
		Wire: d.Wire,
	}
}

// stateOrDefault resolves the effective state world for a descriptor.
func (d Descriptor) stateOrDefault(st State) State {
	if st == nil {
		return d.DefaultState
	}
	return st
}

// Trojan applies the descriptor's oracle in the given state world (nil =
// DefaultState). It returns false when the target has no oracle.
func (d Descriptor) Trojan(msg []int64, st State) bool {
	if d.IsTrojan == nil {
		return false
	}
	return d.IsTrojan(msg, d.stateOrDefault(st))
}

// Replay runs the concrete-implementation replay in the given state world
// (nil = DefaultState). ok reports whether the target has an implementation.
func (d Descriptor) Replay(msg []int64, st State) (accepted, ok bool) {
	if d.ImplAccepts == nil {
		return false, false
	}
	return d.ImplAccepts(msg, d.stateOrDefault(st)), true
}

// Class renders the Trojan class key of a message.
func (d Descriptor) Class(msg []int64) string {
	if d.ClassKey == nil {
		return fmt.Sprint(msg)
	}
	return d.ClassKey(msg)
}

// FuzzCampaign runs the target's black-box fuzz baseline: tests random
// messages (tests <= 0 uses the spec default) against the concrete
// interpretation of the server model, with local state pinned to the
// canonical world and the descriptor's oracle labelling Trojans. It returns
// an error when the target has no FuzzSpec.
func (d Descriptor) FuzzCampaign(tests int, seed int64) (*fuzz.Result, error) {
	if d.Fuzz == nil {
		return nil, fmt.Errorf("registry: target %q is not fuzzable", d.Name)
	}
	if tests <= 0 {
		tests = d.Fuzz.Tests
	}
	t := d.Target()
	opts := fuzz.Options{
		Tests:          tests,
		Seed:           seed,
		Entry:          t.ServerExec.Entry,
		Inputs:         t.ServerExec.Inputs,
		GlobalConcrete: map[string]int64{},
	}
	for k, v := range t.ServerExec.GlobalConcrete {
		opts.GlobalConcrete[k] = v
	}
	// Symbolic local state cannot run concretely: pin it to the canonical
	// world (the same world the oracle assumes).
	for k, v := range d.DefaultState {
		opts.GlobalConcrete[k] = v
	}
	var oracle fuzz.Oracle
	if d.IsTrojan != nil {
		oracle = func(msg []int64) bool { return d.Trojan(msg, nil) }
	}
	return fuzz.Campaign(t.Server, d.Fuzz.Generator, oracle, d.Class, opts)
}

// Run builds the target and executes the full two-phase analysis with the
// descriptor's default options overlaid with mode and parallelism.
func (d Descriptor) Run(mode core.Mode, parallelism int) (*core.RunResult, error) {
	opts := d.Analysis
	opts.Mode = mode
	opts.Parallelism = parallelism
	return core.Run(d.Target(), opts)
}
