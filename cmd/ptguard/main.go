// Command ptguard is the one binary of the PT-Guard reproduction: every
// paper table, figure and campaign is a subcommand.
//
//	ptguard <subcommand> [flags]
//
// `ptguard` alone lists the subcommands and `ptguard <subcommand> -h` a
// subcommand's flags. The Fig. 6 slowdown grid, the Fig. 7 MAC-latency
// sweep, the §VII-C multicore mixes, the DESIGN.md §5 ablations and the
// Fig. 9 correction sweep are sections of `ptguard sweep`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand. setup registers its flags on fs and returns
// its body, which runs once the flags are parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func() error
}

var commands = []command{
	{"report", "static tables: PTE layouts (Tables I, II), system configuration (III), MAC bit map (IV), storage budget (§V-E)", reportCmd},
	{"security", "§VI-E security model (Eqs. 1, 2); -mitigation adds a residual-exposure table", securityCmd},
	{"profile", "Fig. 8 PTE PFN categories over a synthetic process population (-format csv: per-process rows)", profileCmd},
	{"attack", "end-to-end exploit scenarios (§II-C, §IV-G); -compare: detection coverage vs prior defenses", attackCmd},
	{"trace", "Fig. 9 correction on page-walk traces of the full-system simulation (§VI-F)", traceCmd},
	{"sweep", "the evaluation campaign: slowdown (Fig. 6/7), multicore (§VII-C), ablation, correction (Fig. 9)", sweepCmd},
	{"faults", "fault-model taxonomy campaign scored against a ground-truth oracle", faultsCmd},
	{"mitigate", "mitigation head-to-head: in-DRAM trackers x TRR-aware patterns x PT-Guard off/on", mitigateCmd},
	{"vm", "inter-VM Rowhammer campaign on nested paging", vmCmd},
	{"soak", "kill/corrupt/resume loop proving resumed reports byte-identical", soakCmd},
	{"bench", "turn `go test -bench` output into a BENCH_<n>.json baseline, or compare two", benchCmd},
	{"worker", "execution half of the proc and tcp campaign backends", workerCmd},
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	for _, c := range commands {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet("ptguard "+name, flag.ExitOnError)
		run := c.setup(fs)
		_ = fs.Parse(os.Args[2:]) // ExitOnError: a bad flag exits here
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "ptguard %s: %v\n", name, err)
			os.Exit(1)
		}
		return
	}
	if name == "help" || name == "-h" || name == "-help" || name == "--help" {
		usage(os.Stdout)
		return
	}
	fmt.Fprintf(os.Stderr, "ptguard: unknown subcommand %q\n\n", name)
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: ptguard <subcommand> [flags]")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Run `ptguard <subcommand> -h` for a subcommand's flags.")
}
