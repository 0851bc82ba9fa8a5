// Command hogc is the standalone prefetch/release compiler: it reads a
// loop-nest program, runs the paper's analysis pass, and prints the
// transformed code with the inserted prefetch and release calls,
// followed by the static verifier's diagnostics (and, with -stats, the
// analysis summary routed through the same formatter).
//
// Usage:
//
//	hogc [-mem MB] [-page KB] [-version O|P|R|B] file.hog
//	hogc -bench matvec            # compile a built-in benchmark
//	hogc -vet -bench fftpde       # diagnostics only, no listing
//
// With no file and no -bench, the source is read from stdin. hogc
// exits non-zero when compilation fails or when the verifier reports
// an error-severity finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memhogs"
)

func main() {
	memMB := flag.Int("mem", 75, "memory size the compiler may assume, in MB")
	pageKB := flag.Int("page", 16, "page size in KB")
	version := flag.String("version", "B", "program version: O, P, R or B")
	bench := flag.String("bench", "", "compile a built-in benchmark instead of a file")
	stats := flag.Bool("stats", true, "print the analysis summary")
	vet := flag.Bool("vet", false, "print verifier diagnostics only (no listing)")
	flag.Parse()

	var src string
	switch {
	case *bench != "":
		s, err := memhogs.BenchmarkSource(*bench, memhogs.DefaultMachine())
		if err != nil {
			fatal("%v", err)
		}
		src = s
	case flag.NArg() >= 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		src = string(data)
	default:
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal("%v", err)
		}
		src = string(data)
	}

	v, err := memhogs.ParseVersion(*version)
	if err != nil {
		fatal("%v", err)
	}

	machine := memhogs.DefaultMachine()
	machine.MemoryMB = *memMB
	machine.PageSizeKB = *pageKB

	prog, err := memhogs.Compile(src, machine, v)
	if err != nil {
		fatal("%v", err)
	}

	// Diagnostics always go through the verifier's formatter — the old
	// ad-hoc "// warning:"/"// note:" lines are now real findings
	// (HV006, HV008) and survive -stats=false.
	rep := prog.Vet()
	if *stats {
		rep = prog.VetWithStats()
	}
	if *vet {
		fmt.Print(rep)
	} else {
		fmt.Print(prog.Listing())
		fmt.Println()
		fmt.Print(rep)
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "hogc: "+format+"\n", args...)
	os.Exit(1)
}
