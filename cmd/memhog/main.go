// Command memhog regenerates the paper's tables and figures and runs
// individual benchmarks on the simulated platform.
//
// Usage:
//
//	memhog table1|table2|table3|fig1|fig7|fig8|fig9|fig10a|fig10b|fig10c|locks
//	memhog all                  # every table and figure, in paper order
//	memhog verify               # check the paper's claims; exit 1 on failure
//	memhog run <benchmark>      # one benchmark, all four versions
//	memhog listing <benchmark>  # transformed code with inserted hints
//	memhog vet [benchmark...]   # static hint-safety diagnostics (default: all)
//	memhog certify [benchmark...] # hogflow residency certificates,
//	                            # one section per DRAM:far ratio
//	memhog timeline <benchmark> [O|P|R|B]  # memory dynamics over time
//	memhog trace <benchmark> [O|P|R|B]     # event-level flight recorder
//	memhog chaos <benchmark> [O|P|R|B] [-seed N] [-faults ...]
//	                            # deterministic fault injection + auditing
//	memhog chaosmatrix [-seed N] # benchmarks × versions × fault classes
//	memhog sensitivity <benchmark>         # memory-size sweep
//	memhog tiering [benchmark...]          # DRAM:far-tier ratio sweep
//	memhog duel <a> <b>         # two memory hogs sharing the machine
//	memhog list                 # benchmark names
//
// Flags:
//
//	-quick    use the scaled-down machine and benchmarks (seconds, not minutes)
//	-quiet    suppress per-run progress lines
//	-json     machine-readable output (run command)
//	-log      trace command: emit the merged event log instead of Chrome JSON
//	-j N      run campaign simulations on N workers (0 = one per CPU,
//	          1 = serial); output is byte-identical at any setting
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memhogs"
)

// app carries the parsed global flags and derived machine/campaign
// configuration into the subcommand bodies.
type app struct {
	quick, quiet, asJSON, asLog bool
	machine                     memhogs.Machine
	campaign                    memhogs.Campaign
}

// command is one registered subcommand. The registry below is the
// single source of truth: dispatch, the -h text, and the help
// coverage test all read it, so a subcommand cannot exist without
// being documented.
type command struct {
	name  string
	args  string // synopsis after the name, "" if none
	brief string // one-line description for the usage text
	run   func(a *app)
}

// commands in usage order. Experiment ids (table1, fig7, locks, ...)
// are not commands: anything not found here falls through to
// campaign.Experiment.
var commands = []command{
	{"all", "", "every table and figure, paper order", (*app).cmdAll},
	{"run", "<bench>", "one benchmark in all four versions", (*app).cmdRun},
	{"listing", "<bench>", "transformed code with inserted hints", (*app).cmdListing},
	{"vet", "[bench...]", "static hint-safety diagnostics, exit 1 on errors", (*app).cmdVet},
	{"certify", "[bench...]", "hogflow residency certificates at every DRAM:far ratio (default: all)", (*app).cmdCertify},
	{"timeline", "<bench> [O|P|R|B]", "memory dynamics over time", (*app).cmdTimeline},
	{"trace", "<bench> [O|P|R|B]", "flight recorder: Chrome trace JSON on stdout (-log for the merged event log)", (*app).cmdTrace},
	{"chaos", "<bench> [O|P|R|B] [-seed N] [-faults class|plan]", "deterministic fault injection with continuous invariant auditing", (*app).cmdChaos},
	{"chaosmatrix", "[-seed N]", "benchmarks × versions × fault classes campaign; exit 1 if any cell wedges or fails its audits", (*app).cmdChaosMatrix},
	{"sensitivity", "<bench>", "memory-size sweep (P vs B crossover)", (*app).cmdSensitivity},
	{"tenants", "[bench...]", "NUMA-sharded node: hogs vs open-loop job stream, response-time tail", (*app).cmdTenants},
	{"tiering", "[bench...]", "DRAM:far-tier sweep: releases as demotion hints across memory splits", (*app).cmdTiering},
	{"duel", "<a> <b>", "two memory hogs sharing the machine", (*app).cmdDuel},
	{"verify", "", "check the paper's claims, exit 1 on failure", (*app).cmdVerify},
	{"list", "", "benchmark names", (*app).cmdList},
}

func main() {
	quick := flag.Bool("quick", false, "use the scaled-down machine and benchmarks")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (run command only)")
	asLog := flag.Bool("log", false, "trace: emit the merged event log instead of Chrome JSON")
	workers := flag.Int("j", 0, "campaign worker pool size (0 = one per CPU, 1 = serial)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	machine := memhogs.DefaultMachine()
	if *quick {
		machine = memhogs.TestMachine()
	}
	a := &app{
		quick:    *quick,
		quiet:    *quiet,
		asJSON:   *asJSON,
		asLog:    *asLog,
		machine:  machine,
		campaign: memhogs.Campaign{Quick: *quick, Workers: *workers, Progress: progress},
	}

	name := flag.Arg(0)
	for i := range commands {
		if commands[i].name == name {
			commands[i].run(a)
			return
		}
	}
	// Experiment ids (including extras like "locks" that are not part
	// of the paper-order list).
	out, err := a.campaign.Experiment(name)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(out)
}

func (a *app) cmdList() {
	for _, name := range memhogs.BenchmarkNames() {
		fmt.Println(name)
	}
}

func (a *app) cmdRun() {
	if flag.NArg() < 2 {
		fatal("run: need a benchmark name (see 'memhog list')")
	}
	name := flag.Arg(1)
	var reports []*memhogs.Report
	for _, v := range memhogs.Versions() {
		rep, err := memhogs.RunBenchmark(name, v, a.machine)
		if err != nil {
			fatal("%v", err)
		}
		if a.asJSON {
			reports = append(reports, rep)
		} else {
			fmt.Print(rep)
		}
	}
	if a.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fatal("%v", err)
		}
	}
}

func (a *app) cmdVet() {
	names := flag.Args()[1:]
	if len(names) == 0 {
		names = memhogs.BenchmarkNames()
	}
	failed := false
	for _, name := range names {
		rep, err := memhogs.VetBenchmark(name, a.machine)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("==== %s ====\n%s\n", name, rep)
		failed = failed || rep.HasErrors()
	}
	if failed {
		os.Exit(1)
	}
}

func (a *app) cmdCertify() {
	names := flag.Args()[1:]
	if len(names) == 0 {
		names = memhogs.BenchmarkNames()
	}
	for _, name := range names {
		out, err := memhogs.CertifyBenchmark(name, a.machine)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Print(out)
	}
}

func (a *app) cmdListing() {
	if flag.NArg() < 2 {
		fatal("listing: need a benchmark name")
	}
	src, err := memhogs.BenchmarkSource(flag.Arg(1), a.machine)
	if err != nil {
		fatal("%v", err)
	}
	prog, err := memhogs.Compile(src, a.machine, memhogs.Buffered)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(prog.Listing())
}

func (a *app) cmdDuel() {
	if flag.NArg() < 3 {
		fatal("duel: need two benchmark names")
	}
	out, err := memhogs.Duel(flag.Arg(1), flag.Arg(2), a.machine)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(out)
}

func (a *app) cmdSensitivity() {
	if flag.NArg() < 2 {
		fatal("sensitivity: need a benchmark name")
	}
	out, err := a.campaign.Sensitivity(flag.Arg(1))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(out)
}

func (a *app) cmdTenants() {
	var benches []string
	for i := 1; i < flag.NArg(); i++ {
		benches = append(benches, flag.Arg(i))
	}
	out, err := a.campaign.Tenants(benches...)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(out)
}

func (a *app) cmdTiering() {
	var benches []string
	for i := 1; i < flag.NArg(); i++ {
		benches = append(benches, flag.Arg(i))
	}
	out, err := a.campaign.Tiering(benches...)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(out)
}

func (a *app) cmdTimeline() {
	if flag.NArg() < 2 {
		fatal("timeline: need a benchmark name")
	}
	version := versionArg(2)
	seconds := 20
	if a.quick {
		seconds = 5
	}
	out, err := memhogs.Timeline(flag.Arg(1), version, a.machine, seconds, 2000)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(out)
}

func (a *app) cmdTrace() {
	if flag.NArg() < 2 {
		fatal("trace: need a benchmark name")
	}
	version := versionArg(2)
	tr, err := memhogs.Trace(flag.Arg(1), version, a.machine, 0, -1)
	if err != nil {
		fatal("%v", err)
	}
	if a.asLog {
		fmt.Print(tr.Log)
		return
	}
	// A short write here (full disk, closed pipe) would truncate the
	// Chrome trace into unparseable JSON; found by simvet SV005.
	if _, err := os.Stdout.Write(tr.ChromeJSON); err != nil {
		fatal("writing trace: %v", err)
	}
	if !a.quiet {
		fmt.Fprint(os.Stderr, tr.Summary)
	}
}

func (a *app) cmdChaos() {
	if flag.NArg() < 2 {
		fatal("chaos: need a benchmark name (see 'memhog list')")
	}
	rest := flag.Args()[2:]
	version := memhogs.Buffered
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		version = versionArg(2)
		rest = rest[1:]
	}
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "fault plan seed; equal seeds replay byte-identical runs")
	faults := fs.String("faults", "all",
		"fault class ("+strings.Join(memhogs.ChaosClasses(), "|")+") or a plan string")
	audit := fs.Int("audit", 0, "audit cadence in virtual milliseconds (0 = default)")
	seconds := fs.Int("seconds", 0, "loop the program until the given virtual time")
	_ = fs.Parse(rest) // ExitOnError: a bad flag never returns
	rep, err := memhogs.Chaos(flag.Arg(1), version, a.machine, memhogs.ChaosOptions{
		Seed:               *seed,
		Faults:             *faults,
		AuditEveryMS:       *audit,
		InteractiveSleepMS: -1,
		Seconds:            *seconds,
	})
	if err != nil {
		fatal("%v", err)
	}
	if a.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal("%v", err)
		}
	} else {
		fmt.Print(rep)
	}
}

func (a *app) cmdChaosMatrix() {
	fs := flag.NewFlagSet("chaosmatrix", flag.ExitOnError)
	seed := fs.Uint64("seed", 7, "campaign seed")
	_ = fs.Parse(flag.Args()[1:]) // ExitOnError: a bad flag never returns
	out, err := a.campaign.ChaosMatrix(*seed)
	fmt.Print(out)
	if err != nil {
		fatal("%v", err)
	}
}

func (a *app) cmdVerify() {
	out, ok, err := a.campaign.Verify()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(out)
	if !ok {
		os.Exit(1)
	}
}

func (a *app) cmdAll() {
	out, err := a.campaign.All()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(out)
}

// versionArg parses the optional version letter at argument position i
// (default B, the paper's best version).
func versionArg(i int) memhogs.Version {
	if flag.NArg() <= i {
		return memhogs.Buffered
	}
	switch flag.Arg(i) {
	case "O":
		return memhogs.Original
	case "P":
		return memhogs.PrefetchOnly
	case "R":
		return memhogs.Aggressive
	case "B":
		return memhogs.Buffered
	}
	fatal("unknown version %q (want O, P, R or B)", flag.Arg(i))
	panic("unreachable")
}

// usageText renders the help text from the command registry (the
// coverage test asserts every registered command appears in it).
func usageText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memhog — \"Taming the Memory Hogs\" (OSDI 2000) reproduction\n\n")
	fmt.Fprintf(&b, "usage:\n")
	fmt.Fprintf(&b, "  memhog [-quick] [-j N] <experiment>   one of: %v\n", memhogs.ExperimentIDs())
	for _, c := range commands {
		left := "memhog [-quick] " + c.name
		if c.args != "" {
			left += " " + c.args
		}
		fmt.Fprintf(&b, "  %-47s %s\n", left, c.brief)
	}
	return b.String()
}

func usage() {
	fmt.Fprint(os.Stderr, usageText())
	flag.PrintDefaults()
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "memhog: "+format+"\n", args...)
	os.Exit(1)
}
