// Package compiler implements the paper's SUIF-style analysis pass
// (§3.2) over the loop-nest language: reuse analysis, locality
// analysis against an assumed memory size, prefetch scheduling via
// software pipelining, and — the paper's contribution — aggressive
// insertion of release hints for trailing references, with reuse
// information encoded as a priority:
//
//	priority(x) = Σ_{i ∈ temporal(x)} 2^depth(i)          (2)
//
// Each top-level loop nest is analyzed independently ("reuses that
// occur between independent sets of loops are not considered"), and
// procedures are compiled once ("we only generate a single version of
// the code"), which together produce the paper's MGRID and CGM
// pathologies without special-casing.
package compiler

import (
	"fmt"

	"memhogs/internal/lang"
	"memhogs/internal/sim"
)

// Target describes the machine model given to the compiler: "the size
// of main memory, the page size, and the page fault latency" (§3.2),
// plus cost-model knobs.
type Target struct {
	PageSize     int
	MemoryPages  int      // physical pages the compiler may assume
	EffMemFrac   float64  // fraction of memory assumed usable (default 0.75)
	FaultLatency sim.Time // page-fault latency for prefetch scheduling
	OpCostNS     float64  // default cost per arithmetic op when a statement has none
	// UnknownTrip is the iteration count assumed for loops whose
	// bounds the compiler cannot evaluate, used only for prefetch
	// scheduling (locality analysis treats unknown as "does not fit").
	UnknownTrip int64
	// MaxPrefetchPages caps the software-pipelining distance.
	MaxPrefetchPages int
	// Aggressive enables the paper's evaluated policy: insert a
	// release for every trailing reference, encoding reuse in the
	// priority. When false, releases are inserted only for references
	// with no exploitable temporal reuse (the conservative §2.3.2
	// policy, kept for ablation).
	Aggressive bool
	// Prefetch/Release toggles let the same analysis produce the
	// paper's four program versions: O (neither), P (prefetch only),
	// R/B (both; the run-time layer distinguishes R from B).
	Prefetch bool
	Release  bool

	// Adaptive enables the paper's proposed future work ("the
	// solution to the problems experienced by MGRID and FFTPDE is to
	// generate more adaptive code", §4.2): symbolic strides are
	// treated as run-time-resolved rather than loop-invariant (no
	// misdetected temporal reuse, so FFTPDE's releases get correct
	// zero priorities), and releases under unknown bounds track the
	// true trailing reference instead of falling back to the leader
	// (no MGRID imprecision).
	Adaptive bool
}

// DefaultTarget returns a target for the paper's platform. The
// prefetch distance is capped at a fraction of memory so pipelined
// prefetches cannot themselves flush the working set.
func DefaultTarget(pageSize, memoryPages int) Target {
	maxPf := memoryPages / 16
	if maxPf > 256 {
		maxPf = 256
	}
	if maxPf < 2 {
		maxPf = 2
	}
	return Target{
		PageSize:         pageSize,
		MemoryPages:      memoryPages,
		EffMemFrac:       0.75,
		FaultLatency:     8 * sim.Millisecond,
		OpCostNS:         5,
		UnknownTrip:      100,
		MaxPrefetchPages: maxPf,
		Aggressive:       true,
		Prefetch:         true,
		Release:          true,
	}
}

// Stats summarizes what the compiler did (Table 2 inputs).
type Stats struct {
	Nests             int
	Refs              int
	IndirectRefs      int
	Groups            int
	PrefetchDirs      int
	ReleaseDirs       int
	ZeroPrioReleases  int
	ReusePrioReleases int
	MisdetectedReuse  int // symbolic-stride refs wrongly given temporal reuse
	ImpreciseReleases int // releases placed behind the leader (unknown bounds)
	UnknownBoundLoops int
}

// Compiled is the output of Compile: an executable plan with hint
// directives attached, plus analysis statistics and a transformed-code
// listing.
type Compiled struct {
	Prog   *lang.Program
	Target Target
	Main   []xstmt
	Stats  Stats

	numTags  int
	numDirs  int
	numSites int
	procs    map[*lang.Proc][]xstmt
	hints    []Hint

	// Scalar-name slot table: finalize resolves every param, loop
	// variable, and formal to a dense index so the interpreter can run
	// over flat vectors instead of a string-keyed map (see slots.go).
	slots     map[string]int32
	slotNames []string

	indirect   []*xref  // every a[b[i]] reference, in finalize order
	quietLoops []*xloop // by xloop.plan
}

// Compile analyzes and transforms a program for the given target.
func Compile(prog *lang.Program, tgt Target) (*Compiled, error) {
	if tgt.PageSize <= 0 || tgt.MemoryPages <= 0 {
		return nil, fmt.Errorf("compiler: target needs PageSize and MemoryPages")
	}
	if tgt.EffMemFrac <= 0 || tgt.EffMemFrac > 1 {
		tgt.EffMemFrac = 0.75
	}
	if tgt.UnknownTrip <= 0 {
		tgt.UnknownTrip = 100
	}
	if tgt.MaxPrefetchPages <= 0 {
		tgt.MaxPrefetchPages = 256
	}
	c := &Compiled{
		Prog:   prog,
		Target: tgt,
		procs:  map[*lang.Proc][]xstmt{},
	}
	known := lang.Env{}
	for k, v := range prog.Known {
		known[k] = v
	}
	cc := &compileCtx{c: c, known: known}
	// Compile procedures once each (single version of code).
	for _, pr := range prog.Procs {
		cc.proc = pr.Name
		body, err := cc.compileBody(pr.Body, pr.Formals)
		if err != nil {
			return nil, fmt.Errorf("proc %s: %w", pr.Name, err)
		}
		c.procs[pr] = body
	}
	cc.proc = ""
	main, err := cc.compileBody(prog.Body, nil)
	if err != nil {
		return nil, err
	}
	c.Main = main
	c.finalize()
	return c, nil
}

// MustCompile panics on error; for compiled-in workloads and tests.
func MustCompile(prog *lang.Program, tgt Target) *Compiled {
	c, err := Compile(prog, tgt)
	if err != nil {
		panic(err)
	}
	return c
}

// containsCall reports whether the loop body contains a procedure
// call at any depth.
func containsCall(l *lang.Loop) bool {
	for _, s := range l.Body {
		switch st := s.(type) {
		case *lang.Call:
			return true
		case *lang.Loop:
			if containsCall(st) {
				return true
			}
		}
	}
	return false
}

// compileCtx carries state across nest compilations.
type compileCtx struct {
	c     *Compiled
	known lang.Env
	proc  string // name of the procedure being compiled; "" for main
}

// compileBody compiles a statement list. formals are symbols bound at
// call time (unknown to the compiler).
func (cc *compileCtx) compileBody(body []lang.Stmt, formals []string) ([]xstmt, error) {
	var out []xstmt
	for _, s := range body {
		switch st := s.(type) {
		case *lang.Loop:
			if containsCall(st) {
				// A driver loop (e.g. MGRID's V-cycle): execute it
				// plainly and compile each inner nest independently —
				// "reuses that occur between independent sets of loops
				// are not considered."
				inner, err := cc.compileBody(st.Body, formals)
				if err != nil {
					return nil, err
				}
				out = append(out, &xloop{v: st.Var, lo: st.Lo, hi: st.Hi, step: st.Step, body: inner})
				continue
			}
			cc.c.Stats.Nests++
			xl, err := cc.compileNest(st, formals)
			if err != nil {
				return nil, err
			}
			out = append(out, xl)
		case *lang.Assign:
			xa, err := cc.compileAssign(st, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, xa)
		case *lang.Call:
			pr := st.Proc
			xc := &xcall{proc: pr, args: st.Args, body: cc.c.procs[pr]}
			if xc.body == nil {
				return nil, fmt.Errorf("call of uncompiled proc %s", pr.Name)
			}
			out = append(out, xc)
		default:
			return nil, fmt.Errorf("unsupported statement %T", s)
		}
	}
	return out, nil
}
