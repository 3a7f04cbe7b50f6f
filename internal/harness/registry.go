package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"ptguard/internal/obs"
	"ptguard/internal/report"
)

// The campaign registry. Each campaign kind is declared once, by its spec
// type: Kind names it, Jobs expands it and Report renders its results.
// One Register call per kind wires the two ways a campaign runs — from a
// typed spec in the CLI (Prepare), and from its wire form (kind, spec
// JSON, seed) in a dist worker (Expand). Job closures cannot be
// serialised, but Jobs(seed) is a pure function, so a worker re-expands
// the identical job set and a bare job key names the same computation on
// both sides. Kind names are part of the wire protocol and of journal
// fingerprints: never reuse or rename one.

// Spec is a registered campaign spec.
type Spec interface {
	// Kind names the campaign kind on the wire and in the registry.
	Kind() string
}

// Campaign is what Register needs of a spec type whose jobs return R.
type Campaign[R any] interface {
	Spec
	// Jobs expands the spec into its jobs, in report order.
	Jobs(campaignSeed uint64) ([]Job[R], error)
	// Report renders the results, in job order.
	Report(results []R) (*Output, error)
}

// Output is a rendered campaign: its report tables, and each run's
// observability data when the spec collected any.
type Output struct {
	Tables []*report.Table
	Runs   []LabelledRun
}

// LabelledRun is one run's observability data under its series/track
// label.
type LabelledRun struct {
	Label   string
	Metrics *obs.RunMetrics
}

// Plan runs a prepared campaign under opts and renders its report.
type Plan func(ctx context.Context, opts Options) (*Output, error)

// kind is one registry entry.
type kind struct {
	expand  func(spec json.RawMessage, seed uint64) (*JobSet, error)
	prepare func(spec Spec, seed uint64) (Plan, error)
}

var registry = map[string]kind{}

// Register wires the campaign kind of spec type S. It panics on a
// duplicate kind name, so call it from init.
func Register[S Campaign[R], R any]() {
	var zero S
	name := zero.Kind()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("harness: duplicate campaign kind %q", name))
	}
	registry[name] = kind{
		expand: func(raw json.RawMessage, seed uint64) (*JobSet, error) {
			var spec S
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, fmt.Errorf("harness: decode %s spec: %w", name, err)
			}
			jobs, err := spec.Jobs(seed)
			if err != nil {
				return nil, fmt.Errorf("harness: expand %s campaign: %w", name, err)
			}
			return newJobSet(name, jobs)
		},
		prepare: func(s Spec, seed uint64) (Plan, error) {
			spec, ok := s.(S)
			if !ok {
				return nil, fmt.Errorf("harness: %T is not the registered %s spec %T", s, name, zero)
			}
			jobs, err := spec.Jobs(seed)
			if err != nil {
				return nil, err
			}
			if err := checkJobs(jobs); err != nil {
				return nil, err
			}
			return func(ctx context.Context, opts Options) (*Output, error) {
				rep, err := Run(ctx, jobs, opts)
				if err != nil {
					return nil, err
				}
				results, err := rep.Results()
				if err != nil {
					return nil, err
				}
				return spec.Report(results)
			}, nil
		},
	}
}

// Kinds returns the registered campaign kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (kind, error) {
	k, ok := registry[name]
	if !ok {
		return kind{}, fmt.Errorf("harness: unknown spec kind %q (known: %v)", name, Kinds())
	}
	return k, nil
}

// Prepare expands a typed spec into its jobs and checks their keys — so
// an invalid spec fails here, before any backend starts — and returns the
// plan that runs and renders them.
func Prepare(spec Spec, campaignSeed uint64) (Plan, error) {
	k, err := lookup(spec.Kind())
	if err != nil {
		return nil, err
	}
	return k.prepare(spec, campaignSeed)
}

// Expand decodes a spec of the named kind from JSON and expands it: the
// worker side of a campaign shipped as (kind, spec JSON, seed).
func Expand(kind string, spec json.RawMessage, campaignSeed uint64) (*JobSet, error) {
	k, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	return k.expand(spec, campaignSeed)
}

// JobSet is an expanded campaign whose results travel as JSON: the job
// keys in spec order, each runnable by key.
type JobSet struct {
	Keys []string
	run  map[string]func(context.Context) (json.RawMessage, error)
}

func newJobSet[R any](name string, jobs []Job[R]) (*JobSet, error) {
	js := &JobSet{run: make(map[string]func(context.Context) (json.RawMessage, error), len(jobs))}
	for _, j := range jobs {
		if _, dup := js.run[j.Key]; dup {
			return nil, fmt.Errorf("harness: %s campaign has duplicate job key %q", name, j.Key)
		}
		js.Keys = append(js.Keys, j.Key)
		js.run[j.Key] = func(ctx context.Context) (json.RawMessage, error) {
			v, err := j.Run(ctx)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("harness: marshal result of %q: %w", j.Key, err)
			}
			return raw, nil
		}
	}
	return js, nil
}

// Run executes the job named key and returns its JSON-encoded result.
func (js *JobSet) Run(ctx context.Context, key string) (json.RawMessage, error) {
	run, ok := js.run[key]
	if !ok {
		return nil, fmt.Errorf("harness: unknown job key %q", key)
	}
	return run(ctx)
}
