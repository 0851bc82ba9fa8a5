// Package footprint (hogflow) is a static residency-certification
// engine: an abstract interpretation of a compiled loop-nest program
// (internal/lang) together with its hint schedule
// (compiler.Compiled.Hints) that bounds, per nest and per array, the
// number of resident pages the program can hold, and derives a
// whole-program residency certificate — peak resident pages as a
// function of problem size, per program version O/P/R/B.
//
// # Abstract domain
//
// The domain is page-granular and per (nest, array): an access stream
// is abstracted by the interval of element offsets it can touch,
// computed from the linearized affine subscript — for each loop
// variable, |coefficient| · (trips − 1), plus the constant spread of
// the reference group — and converted to pages. Values are symbolic
// polynomials (Poly) over the program's parameters, so the certificate
// reads as e.g. "N/2048 + 3" and is evaluated only once runtime
// bindings are known. The top element ⊤ for an array is its whole
// declared extent: indirect subscripts (a[b[i]]), symbolic strides
// (the FFTPDE pathology), and dimensions unknown at compile time all
// force ⊤, and the nest is then certified only at the whole-array
// level (diagnosed as HV013 by hogvet).
//
// # Release interpretation
//
// The interpreter models the run-time layer's actual policies
// (internal/rt):
//
//   - versions O and P never release: every touched page stays
//     resident, so a nest's window is its footprint and pages carry
//     over to later nests until the whole array is resident.
//   - version R issues every release immediately: a group covered by a
//     precise release streams — its window is the group's constant
//     spread plus the prefetch pipelining distance plus a small slack
//     for the release path being one request behind and the kernel's
//     swap readahead.
//   - version B issues priority-zero releases immediately (exactly as
//     R does) but parks priority>0 releases in the buffer, which only
//     drains under memory pressure: a group whose release carries
//     reuse priority is retained at its full footprint.
//
// A release that the engine cannot certify — imprecise placement
// behind the group leader (the MGRID fallback), an indirect or
// symbolic target — degrades its array to ⊤ for that nest.
//
// # Two-tier domain
//
// With Opts.FarPages > 0 the certificate becomes a triple of bounds:
// the DRAM peak as before, a far-tier peak occupancy, and a demotion
// flow volume. Only released pages whose eq. 2 reuse priority passes
// the FarMinPrio gate ever reach the far tier (the run-time layer's
// releaser policy), so under O and P the far bounds are exactly zero,
// under R priority-0 streams bypass the tier, and under B the
// retained windows split by priority against the gate. Per-array far
// occupancy accumulates like DRAM carryover (monotone, capped at the
// whole array) and the total is clamped at the tier's physical size;
// the flow bound sums each nest's demotable volume scaled by its
// driver-loop trip product. Imprecise or indirect releases force ⊤ on
// the affected tier: occupancy degrades to the whole array and the
// flow bound to ⊤ outright, since a rescued page can demote again.
//
// # Certificate
//
// Nests are interpreted in program execution order (procedure calls
// are expanded per call site with formals substituted, driver loops
// are transparent and handled by iterating the sequence to a
// fixpoint), maintaining the carried-over resident pages of arrays
// touched earlier. The certified peak is the maximum over nests of
// (windows of touched arrays + carryover of untouched arrays + a
// fixed pipeline slack), clamped at the machine's page allotment —
// the clamp keeps the certificate sound even where the analysis is
// loose, since a process can never hold more frames than exist.
//
// experiments.RunCertCrossValidation validates the certificate
// dynamically: every benchmark × mode × DRAM:far ratio runs under the
// flight recorder and the observed peaks of both tiers must stay at
// or below their certified bounds.
package footprint

import (
	"fmt"
	"sort"
	"strings"

	"memhogs/internal/compiler"
	"memhogs/internal/lang"
)

// Version selects the release interpretation. It deliberately mirrors
// the paper's O/P/R/B program versions without importing the run-time
// layer: R and B share one compiled schedule and differ only in how
// the run-time layer treats priority>0 releases, so the certificate
// needs its own version axis.
type Version int8

// The four interpretations, in the paper's order.
const (
	VersionO Version = iota // no prefetch, no release
	VersionP                // prefetch only
	VersionR                // aggressive releasing: all releases issue immediately
	VersionB                // buffered releasing: priority>0 releases are retained
)

// String returns the paper's one-letter version name.
func (v Version) String() string {
	switch v {
	case VersionO:
		return "O"
	case VersionP:
		return "P"
	case VersionR:
		return "R"
	default:
		return "B"
	}
}

// Versions lists the four interpretations in paper order.
func Versions() []Version { return []Version{VersionO, VersionP, VersionR, VersionB} }

// UsesRelease reports whether the interpretation honors release hints.
func (v Version) UsesRelease() bool { return v == VersionR || v == VersionB }

// Slack constants of the release interpretation, in pages. They
// account for everything that keeps a streamed page resident a little
// longer than the abstract stream window: the kernel's swap readahead
// klustering, the release path running one request behind the access
// stream, partially-filled releaser batches, and scheduling jitter
// between the application and the releaser daemon. Their values are
// validated (and would be tuned) by RunCertCrossValidation's
// soundness assertion.
const (
	// streamSlackPages is added to every streamed group's window.
	streamSlackPages = 24
	// pipelineSlackPages is added once to every nest's total.
	pipelineSlackPages = 64
)

// Opts configures certification.
type Opts struct {
	// Params binds runtime parameters (problem sizes, strides) for
	// evaluating the symbolic bounds, merged over the program's
	// compile-time Known map. Bounds that stay unresolved degrade to
	// the whole array, and ultimately to the clamped memory limit.
	Params map[string]int64

	// FarPages enables the two-tier domain: when positive, the
	// certificate also carries a far-tier occupancy bound, a demotion
	// flow bound and the thrash-window findings, modeling a far tier
	// of this many pages behind the DRAM allotment. Zero (the default)
	// certifies the single-tier world exactly as before.
	FarPages int

	// FarMinPrio is the demotion gate mirrored from the run-time
	// layer (kernel.FarConfig.MinPrio): a released page demotes to the
	// far tier when its eq. 2 reuse priority is >= FarMinPrio, and
	// goes to swap below it. Zero admits every release.
	FarMinPrio int
}

// Policy classifies one array's treatment within one nest.
type Policy int8

// Policies.
const (
	PolicyResident Policy = iota // no (honored) release: footprint stays resident
	PolicyStreamed               // released immediately: only the stream window is resident
	PolicyRetained               // buffered: priority>0 release retains the footprint
	PolicyTop                    // ⊤: non-affine/symbolic/imprecise, whole array assumed resident
)

// String returns the policy name used in certificate listings.
func (p Policy) String() string {
	switch p {
	case PolicyStreamed:
		return "streamed"
	case PolicyRetained:
		return "retained"
	case PolicyTop:
		return "top"
	default:
		return "resident"
	}
}

// ArrayWindow is one array's abstract state within one nest.
type ArrayWindow struct {
	Array          string
	Footprint      Poly  // symbolic footprint bound, in pages
	FootprintPages int64 // evaluated footprint; -1 when unresolved
	WindowPages    int64 // version-specific resident window; -1 when unresolved
	Policy         Policy
	Note           string // reason for ⊤ or retention, if any

	// FarWindowPages is the demotable volume this nest can push into
	// the far tier per execution (releases whose priority passes the
	// FarMinPrio gate); -1 when unresolved, always 0 with the far tier
	// disabled or under a version that never releases.
	FarWindowPages int64
}

// SiteCert is the certificate of one nest occurrence (one call site
// for procedure nests).
type SiteCert struct {
	Label string // e.g. "main:7 (loop i)" or "resid:12 (n=190)"
	Proc  string
	Line  int

	Windows []ArrayWindow
	// TotalPages is the nest's peak contribution: touched windows plus
	// carried-over pages of untouched arrays plus the pipeline slack;
	// -1 when unresolved.
	TotalPages int64
}

// UncertifiedNest records a nest where some array was forced to ⊤
// while the schedule carries releases — the HV013 condition.
type UncertifiedNest struct {
	Proc    string
	Line    int
	Reasons []string // sorted, one per ⊤ array: "array: reason"
}

// DeadWindow records a priority>0 release whose array is provably
// never referenced again after its nest — the HV012 condition: the
// buffered policy retains those pages with zero remaining reuse.
type DeadWindow struct {
	Proc       string
	Line       int
	Array      string
	Tag        int
	Priority   int
	NestsAfter int // full nests executed after the last touch
}

// ThrashWindow records a statically wasted demote→promote round
// trip — the HV015 condition: a buffered (priority>0) release passes
// the FarMinPrio gate, so memory pressure demotes the window to the
// far tier, yet the array's provable next use is the immediately
// following nest — before the demotion can break even, every demoted
// page faults straight back in.
type ThrashWindow struct {
	Proc     string
	Line     int
	Array    string
	Tag      int
	Priority int
	NextProc string // nest that re-touches the array
	NextLine int
}

// Certificate is the whole-program residency certificate for one
// version.
type Certificate struct {
	Program string
	Version Version
	Target  compiler.Target
	Env     lang.Env // Known merged with Opts.Params

	Sites []SiteCert

	// BoundPages is the interpreted peak over the nest sequence; -1
	// when some bound stayed unresolved. CertifiedPages is the bound
	// clamped at Target.MemoryPages (always sound); Clamped reports
	// that the clamp engaged.
	BoundPages     int64
	CertifiedPages int64
	Clamped        bool
	PeakSite       string // label of the site attaining the bound

	// ParamGaps reports that some bound degraded to the whole array
	// because runtime parameters were not supplied (Opts.Params): the
	// certificate is still sound, but BoundPages is not the
	// paper-scale peak, so HV011 must not be judged from it.
	ParamGaps bool

	Uncertified []UncertifiedNest
	DeadWindows []DeadWindow

	// Two-tier extension, populated only when Opts.FarPages > 0 (all
	// zero otherwise). FarBoundPages is the interpreted far-tier peak
	// occupancy (-1 when some demotable volume stayed unresolved);
	// FarCertifiedPages clamps it at the tier's physical size, which
	// keeps it sound regardless — the tier can never hold more slots
	// than it has. DemoteFlowPages bounds the total DRAM→far demotion
	// traffic over the whole run (-1 = ⊤: an imprecise or indirect
	// release can demote the same page repeatedly, so no finite
	// static bound exists).
	FarPages          int // configured far-tier size, from Opts
	FarMinPrio        int // demotion gate, from Opts
	FarBoundPages     int64
	FarCertifiedPages int64
	FarClamped        bool
	DemoteFlowPages   int64
	ThrashWindows     []ThrashWindow
}

// Certify interprets the program and its schedule under the given
// version and returns the residency certificate. The hints must come
// from a compilation against tgt (compiler.Compiled.Hints); for
// versions O and P the schedule may be empty.
func Certify(prog *lang.Program, tgt compiler.Target, hints []compiler.Hint, ver Version, opts Opts) *Certificate {
	env := lang.Env{}
	for k, v := range prog.Known {
		env[k] = v
	}
	for k, v := range opts.Params {
		env[k] = v
	}
	in := &interp{
		prog:  prog,
		tgt:   tgt,
		hints: hints,
		ver:   ver,
		env:   env,
		known: knownEnv(prog),
		far:   int64(opts.FarPages),
		prio:  opts.FarMinPrio,
	}
	return in.run()
}

func knownEnv(prog *lang.Program) lang.Env {
	known := lang.Env{}
	for k, v := range prog.Known {
		known[k] = v
	}
	return known
}

// envString renders the evaluation environment deterministically.
func envString(env lang.Env) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, env[k]))
	}
	return strings.Join(parts, " ")
}
