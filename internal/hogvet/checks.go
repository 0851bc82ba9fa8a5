package hogvet

import (
	"fmt"

	"memhogs/internal/compiler"
	"memhogs/internal/footprint"
	"memhogs/internal/lang"
)

// VetSchedule verifies an explicit hint schedule against the program
// AST. Vet is the common entry point; this form exists so tests (and
// future tools) can check schedules that did not come straight out of
// the compiler.
func VetSchedule(prog *lang.Program, tgt compiler.Target, hints []compiler.Hint, opts Options) Diagnostics {
	if opts.FloodThreshold <= 0 {
		opts.FloodThreshold = 64
	}
	if opts.UnknownTrip <= 0 {
		opts.UnknownTrip = tgt.UnknownTrip
		if opts.UnknownTrip <= 0 {
			opts.UnknownTrip = 100
		}
	}
	known := lang.Env{}
	for k, val := range prog.Known {
		known[k] = val
	}
	v := &vetCtx{prog: prog, tgt: tgt, opts: opts, known: known, refCache: map[*lang.Loop][]footprint.NestRef{}}
	for i := range hints {
		v.checkHint(&hints[i])
	}
	v.checkDuplicates(hints)
	v.checkDeadHints(hints)
	v.checkNests(hints)
	v.checkCertificate(hints)
	v.ds.sortStable()
	return v.ds
}

func hintLine(h *compiler.Hint) int {
	if h.Loop != nil {
		return h.Loop.Line
	}
	return 0
}

func arrName(a *lang.Array) string {
	if a == nil {
		return "?"
	}
	return a.Name
}

// checkHint runs the per-directive checks: HV002 (indirect release),
// HV003 (priority consistency), HV006 (false temporal reuse), HV001
// (release before last use) and HV009 (unproven release region).
func (v *vetCtx) checkHint(h *compiler.Hint) {
	if h.Kind != compiler.HintRelease {
		return
	}
	if h.IndexArray != nil {
		v.add(Diagnostic{
			Code: "HV002", Check: "indirect-release", Severity: Error,
			Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
			Message: fmt.Sprintf("release of indirectly-subscripted array %s[%s[...]] — §3.2 forbids releasing indirect references",
				arrName(h.Array), arrName(h.IndexArray)),
			Detail: "it is not possible to reason statically about the reuse of an indirect reference, so a release can free pages an arbitrary later iteration still needs",
			Fix:    "drop the release; keep at most the per-iteration prefetch for the indirect stream",
		})
		return
	}
	if h.Affine == nil || len(h.Path) == 0 {
		return
	}

	// HV003: recompute equation (2) independently and cross-check.
	if want := eq2Priority(h.Affine, h.Path, v.tgt.Adaptive); want != h.Priority {
		v.add(Diagnostic{
			Code: "HV003", Check: "priority-mismatch", Severity: Error,
			Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
			Message: fmt.Sprintf("release of %s (tag %d) stores priority %d, but equation (2) recomputed from the AST gives %d",
				arrName(h.Array), h.Tag, h.Priority, want),
			Detail: "the run-time layer orders buffered releases by this priority; a wrong value retains the wrong pages under memory pressure",
			Fix:    "regenerate the schedule; the stored priority does not match the reference's temporal-reuse set",
		})
	}

	// HV006: the priority claims reuse carried by a symbolic-stride
	// loop — the FFTPDE misdetection.
	if h.Priority > 0 {
		if _, sym := temporalLoops(h.Affine, h.Path, v.tgt.Adaptive); len(sym) > 0 {
			for _, l := range sym {
				param := ""
				for _, t := range h.Affine.Terms {
					if t.Var == l.Var {
						param = t.CoefParam
					}
				}
				v.add(Diagnostic{
					Code: "HV006", Check: "false-temporal-reuse", Severity: Warning,
					Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
					Message: fmt.Sprintf("release of %s (tag %d) carries priority %d from claimed temporal reuse in loop %q, but the stride %q is symbolic — likely false reuse",
						arrName(h.Array), h.Tag, h.Priority, l.Var, param),
					Detail: "a symbolic stride makes the subscript look loop-invariant; at run time the reference never revisits those pages, so buffered releasing retains memory that is never reused (the FFTPDE pathology, §4.5)",
					Fix:    "make the stride a compile-time constant (a \"known\" param) or compile with Target.Adaptive to resolve strides at run time",
				})
			}
		}
	}

	// HV001: a later reference to the released region. Group-local
	// comparison: references in the same innermost loop whose variable
	// terms match the release's subscript but whose constant offset
	// trails it will touch the released pages on later iterations.
	innermost := h.Path[len(h.Path)-1]
	sig := footprint.Signature(h.Affine)
	var trailing *footprint.NestRef
	var sawOtherPattern bool
	for i, r := range v.nestRefs(h.Path[0]) {
		if r.Array != h.Array {
			continue
		}
		if r.Lin == nil || len(r.Path) == 0 || r.Path[len(r.Path)-1] != innermost || footprint.Signature(r.Lin) != sig {
			sawOtherPattern = true
			continue
		}
		if r.Lin.Const < h.Affine.Const {
			if trailing == nil || r.Lin.Const < trailing.Lin.Const {
				trailing = &v.nestRefs(h.Path[0])[i]
			}
		}
	}
	if trailing != nil {
		sev, detail := Error, "the trailing reference provably re-reads pages this release has already freed; the release must move behind the trailing reference"
		if !v.boundsKnown(h.Path) {
			sev = Warning
			detail = "unknown loop bounds separate the leading and trailing references, so the release was placed behind the leader; freed pages are re-referenced and must be rescued by the free list (the MGRID pathology, §4.4)"
		}
		v.add(Diagnostic{
			Code: "HV001", Check: "release-before-last-use", Severity: sev,
			Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
			Message: fmt.Sprintf("release of %s (tag %d) at offset %s fires %d element(s) ahead of trailing reference %s[%s]",
				arrName(h.Array), h.Tag, lang.FormatAffine(h.Affine),
				h.Affine.Const-trailing.Lin.Const, arrName(h.Array), lang.FormatAffine(trailing.Lin)),
			Detail: detail,
			Fix:    "make the separating loop bounds known at compile time, or compile with Target.Adaptive to track the true trailing reference",
		})
	}

	// HV009: the same array is also reached through a different
	// subscript pattern in this nest — region disjointness is unproven.
	if sawOtherPattern {
		v.add(Diagnostic{
			Code: "HV009", Check: "unproven-release-region", Severity: Note,
			Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
			Message: fmt.Sprintf("release of %s (tag %d) is not provably safe: the nest also references %s through a different subscript pattern",
				arrName(h.Array), h.Tag, arrName(h.Array)),
			Detail: "the verifier cannot separate the released region from the other access stream; the run-time rescue path covers mistakes, at the cost of extra soft faults",
		})
	}
}

// checkDuplicates finds reused tags (HV004) and fully shadowed hints
// (HV005).
func (v *vetCtx) checkDuplicates(hints []compiler.Hint) {
	type regionKey struct {
		kind   compiler.HintKind
		arr    *lang.Array
		region string
		loop   *lang.Loop
		proc   string
	}
	region := func(h *compiler.Hint) string {
		if h.IndexArray != nil {
			return fmt.Sprintf("%s[%s]", arrName(h.IndexArray), lang.FormatAffine(h.IndexAffine))
		}
		if h.Affine != nil {
			return lang.FormatAffine(h.Affine)
		}
		return ""
	}
	byTag := map[int]int{}
	byRegion := map[regionKey]int{}
	for i := range hints {
		h := &hints[i]
		if first, ok := byTag[h.Tag]; ok {
			v.add(Diagnostic{
				Code: "HV004", Check: "duplicate-tag", Severity: Error,
				Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
				Message: fmt.Sprintf("%s hint for %s reuses tag %d already assigned to %s of %s",
					h.Kind, arrName(h.Array), h.Tag, hints[first].Kind, arrName(hints[first].Array)),
				Detail: "tags are the run-time layer's request identifiers; sharing one merges two hint streams and breaks the per-tag duplicate filter",
				Fix:    "regenerate the schedule with unique tags per directive",
			})
		} else {
			byTag[h.Tag] = i
		}
		key := regionKey{kind: h.Kind, arr: h.Array, region: region(h), loop: h.Loop, proc: h.Proc}
		if first, ok := byRegion[key]; ok {
			v.add(Diagnostic{
				Code: "HV005", Check: "shadowed-hint", Severity: Warning,
				Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
				Message: fmt.Sprintf("%s hint (tag %d) duplicates tag %d for the same region of %s on the same loop and can never contribute",
					h.Kind, h.Tag, hints[first].Tag, arrName(h.Array)),
				Detail: "both hints observe the same address stream at the same point; the run-time filter drops everything the second one produces",
				Fix:    "remove the shadowed directive",
			})
		} else {
			byRegion[key] = i
		}
	}
}

// checkDeadHints flags release directives whose target array is never
// referenced anywhere in the enclosing nest and is not the target of
// any other directive there (HV010). Such a hint cannot have come from
// the nest's reference set: no access or prefetch can make the pages
// resident, so every evaluation streams release hints the run-time
// bitmap filter has to reject one by one. The stock compiler derives
// hints from references and never produces these; they appear in
// hand-written or corrupted schedules.
func (v *vetCtx) checkDeadHints(hints []compiler.Hint) {
	for i := range hints {
		h := &hints[i]
		if h.Kind != compiler.HintRelease || h.Affine == nil || len(h.Path) == 0 {
			continue
		}
		live := false
		for _, r := range v.nestRefs(h.Path[0]) {
			if r.Array == h.Array {
				live = true
				break
			}
		}
		for j := range hints {
			if live {
				break
			}
			if j != i && hints[j].Array == h.Array &&
				len(hints[j].Path) > 0 && hints[j].Path[0] == h.Path[0] {
				live = true
			}
		}
		if live {
			continue
		}
		v.add(Diagnostic{
			Code: "HV010", Check: "dead-hint", Severity: Warning,
			Proc: h.Proc, Line: hintLine(h), Array: arrName(h.Array), Tag: h.Tag,
			Message: fmt.Sprintf("release of %s (tag %d) targets an array this nest never references",
				arrName(h.Array), h.Tag),
			Detail: "no reference or prefetch in the nest can make those pages resident, so every evaluation streams hints the run-time filter must reject one by one — pure per-iteration overhead",
			Fix:    "remove the directive; it cannot have come from this nest's reference set",
		})
	}
}

// checkNests runs the per-nest checks: HV008 (unknown bounds, note)
// and HV007 (hint flood under an unknown-bound loop).
func (v *vetCtx) checkNests(hints []compiler.Hint) {
	byLoop := map[*lang.Loop][]*compiler.Hint{}
	for i := range hints {
		if l := hints[i].Loop; l != nil {
			byLoop[l] = append(byLoop[l], &hints[i])
		}
	}
	for _, ns := range v.collectNests() {
		v.checkNestLoops(ns, ns.root, byLoop, false)
	}
}

func (v *vetCtx) checkNestLoops(ns nest, l *lang.Loop, byLoop map[*lang.Loop][]*compiler.Hint, underUnknown bool) {
	_, known := trips(l, v.known)
	if !known {
		v.add(Diagnostic{
			Code: "HV008", Check: "unknown-bound", Severity: Note,
			Proc: ns.proc, Line: l.Line, Tag: -1,
			Message: fmt.Sprintf("bounds of loop %q (%s to %s) are unknown at compile time; the analysis is conservative",
				l.Var, l.Lo.String(), l.Hi.String()),
		})
		if !underUnknown {
			evals, count := v.floodEstimate(l, byLoop)
			if count > 0 && evals >= v.opts.FloodThreshold {
				v.add(Diagnostic{
					Code: "HV007", Check: "hint-flood", Severity: Warning,
					Proc: ns.proc, Line: l.Line, Tag: -1,
					Message: fmt.Sprintf("unknown-bound loop %q streams an estimated %.0f hint evaluations per iteration from %d directive(s)",
						l.Var, evals, count),
					Detail: "the compiler cannot bound the hint volume, and most evaluations target already-resident pages that the run-time layer must filter one by one — the CGM/MGRID user-time overhead of §4.3",
					Fix:    "make the bound a \"known\" param, hoist the directives out of the inner loops, or compile with Target.Adaptive to gate hint streams on run-time bounds",
				})
			}
		}
	}
	for _, s := range l.Body {
		if child, ok := s.(*lang.Loop); ok {
			v.checkNestLoops(ns, child, byLoop, underUnknown || !known)
		}
	}
}

// floodEstimate sums, over every directive attached at or below l, the
// expected number of evaluations during a single iteration of l
// (directives fire once per iteration of the loop they are attached
// to; unknown inner bounds contribute the assumed UnknownTrip).
func (v *vetCtx) floodEstimate(l *lang.Loop, byLoop map[*lang.Loop][]*compiler.Hint) (evals float64, count int) {
	var walk func(m *lang.Loop, rel float64)
	walk = func(m *lang.Loop, rel float64) {
		if hs := byLoop[m]; len(hs) > 0 {
			evals += rel * float64(len(hs))
			count += len(hs)
		}
		for _, s := range m.Body {
			if child, ok := s.(*lang.Loop); ok {
				walk(child, rel*v.estTrips(child))
			}
		}
	}
	walk(l, 1)
	return evals, count
}
