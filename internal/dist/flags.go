package dist

import (
	"flag"
	"fmt"
	"strings"
	"sync/atomic"

	"ptguard/internal/harness"
	"ptguard/internal/obs"
)

// Flags is the shared CLI surface for backend selection; every campaign
// subcommand (ptguard sweep, faults, mitigate, vm, soak) registers it so
// the same -backend/-dist-workers/-connect flags mean the same thing
// everywhere.
type Flags struct {
	Backend string
	Workers int
	Connect string
}

// AddFlags registers the backend flags on fs and returns the bundle to
// pass to Start after parsing.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Backend, "backend", harness.BackendLocal,
		"execution backend: local (in-process pool), proc (ptguard worker subprocesses), tcp (remote workers via -connect)")
	fs.IntVar(&f.Workers, "dist-workers", 2, "worker processes to spawn for -backend=proc")
	fs.StringVar(&f.Connect, "connect", "",
		"comma-separated host:port list of `ptguard worker -listen` endpoints for -backend=tcp")
	return f
}

// Start builds the coordinator the flags select and installs it into the
// harness options: Backend and Executor are set, and Workers is resized
// to the pool width so each worker session stays saturated without idle
// queueing. For the local backend it is a no-op returning (nil, nil).
// The caller must Close a non-nil coordinator after the campaign.
// hopts.Chaos also arms the worker.kill chaos point on the coordinator, so
// one -faults schedule spans both layers.
func (f *Flags) Start(campaign Campaign, hopts *harness.Options) (*Coordinator, error) {
	switch f.Backend {
	case "", harness.BackendLocal:
		return nil, nil
	case "proc":
		co, err := Start(campaign, Options{Workers: f.Workers, Chaos: hopts.Chaos})
		if err != nil {
			return nil, err
		}
		f.install(co, hopts)
		return co, nil
	case "tcp":
		var addrs []string
		for _, a := range strings.Split(f.Connect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("dist: -backend=tcp requires -connect host:port[,host:port...]")
		}
		co, err := Start(campaign, Options{Connect: addrs, Chaos: hopts.Chaos})
		if err != nil {
			return nil, err
		}
		f.install(co, hopts)
		return co, nil
	default:
		return nil, fmt.Errorf("dist: unknown backend %q (want local, proc, or tcp)", f.Backend)
	}
}

func (f *Flags) install(co *Coordinator, hopts *harness.Options) {
	hopts.Backend = f.Backend
	hopts.Executor = co
	hopts.Workers = co.Width()
}

// published holds the coordinator the expvar callback reads; CLIs that
// run several campaigns sequentially (ptguard sweep sections) swap it
// per section.
var published atomic.Pointer[Coordinator]

// Publish exposes co's Status on the -debug-addr expvar endpoint as
// "ptguard.dist" (alongside the harness "ptguard.campaign" snapshot).
// Safe to call per campaign section; the latest coordinator wins. A nil
// co clears the slot (status reads as empty between sections).
func Publish(co *Coordinator) {
	published.Store(co)
	obs.PublishFunc("ptguard.dist", func() any {
		if c := published.Load(); c != nil {
			return c.Status()
		}
		return Status{}
	})
}
