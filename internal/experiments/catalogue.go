package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// runSet names the campaign an experiment reads: the paper draws all
// of §4 from three.
type runSet int8

const (
	noRuns          runSet = iota
	versionRuns            // RunVersions: Figures 7, 8 and 9, Table 3
	sweepRuns              // RunSweep: Figures 1 and 10(a)
	interactiveRuns        // RunInteractive: Figures 10(b) and 10(c)
)

// experiment is one catalogue entry; its renderer reads the session's
// Opts and the campaign named by reads.
type experiment struct {
	id     string
	reads  runSet
	extra  bool // beyond the paper's evaluation: "all" leaves it out
	render func(s *Session) (string, error)
}

// catalogue is every experiment in the order "all" renders them: the
// paper's, in paper order, then the extras.
var catalogue = []experiment{
	{id: "table1", render: func(s *Session) (string, error) { return Table1(s.o).String(), nil }},
	{id: "table2", render: func(s *Session) (string, error) {
		t, err := Table2(s.o)
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}},
	{id: "fig1", reads: sweepRuns, render: func(s *Session) (string, error) { return Fig1(s.sweep).String(), nil }},
	{id: "fig7", reads: versionRuns, render: func(s *Session) (string, error) { return Fig7(s.versions), nil }},
	{id: "fig8", reads: versionRuns, render: func(s *Session) (string, error) { return Fig8(s.versions).String(), nil }},
	{id: "table3", reads: versionRuns, render: func(s *Session) (string, error) { return Table3(s.versions).String(), nil }},
	{id: "fig9", reads: versionRuns, render: func(s *Session) (string, error) { return Fig9(s.versions).String(), nil }},
	{id: "fig10a", reads: sweepRuns, render: func(s *Session) (string, error) { return Fig10a(s.sweep).String(), nil }},
	{id: "fig10b", reads: interactiveRuns, render: func(s *Session) (string, error) { return Fig10b(s.inter).String(), nil }},
	{id: "fig10c", reads: interactiveRuns, render: func(s *Session) (string, error) { return Fig10c(s.inter).String(), nil }},
	{id: "locks", reads: versionRuns, extra: true, render: func(s *Session) (string, error) { return LockTable(s.versions).String(), nil }},
}

// IDs lists the catalogue's experiment ids in catalogue order.
func IDs() []string {
	ids := make([]string, len(catalogue))
	for i, e := range catalogue {
		ids[i] = e.id
	}
	return ids
}

// A Session renders experiments from one set of campaign runs: each
// campaign runs at most once, when the first experiment that reads it
// is rendered.
type Session struct {
	o        Opts
	versions *Versions
	sweep    *Sweep
	inter    *Interactive
}

// NewSession returns a session that has run nothing yet.
func NewSession(o Opts) *Session { return &Session{o: o} }

// read runs set's campaign unless the session already has it.
func (s *Session) read(set runSet) (err error) {
	switch {
	case set == versionRuns && s.versions == nil:
		s.versions, err = RunVersions(s.o)
	case set == sweepRuns && s.sweep == nil:
		s.sweep, err = RunSweep(s.o)
	case set == interactiveRuns && s.inter == nil:
		s.inter, err = RunInteractive(s.o)
	}
	return err
}

// Experiment renders one catalogue entry.
func (s *Session) Experiment(id string) (string, error) {
	for _, e := range catalogue {
		if e.id == id {
			if err := s.read(e.reads); err != nil {
				return "", err
			}
			return e.render(s)
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q", id)
}

// All renders the paper's tables and figures in paper order, each
// followed by a blank line.
func (s *Session) All() (string, error) {
	var b strings.Builder
	for _, e := range catalogue {
		if !e.extra {
			out, err := s.Experiment(e.id)
			if err != nil {
				return "", err
			}
			b.WriteString(out + "\n")
		}
	}
	return b.String(), nil
}

// Verify checks the paper's headline claims against the three
// campaigns, returning the claim table and whether every claim held.
func (s *Session) Verify() (string, bool, error) {
	for _, set := range []runSet{versionRuns, interactiveRuns, sweepRuns} {
		if err := s.read(set); err != nil {
			return "", false, err
		}
	}
	claims := CheckClaims(s.versions, s.inter, s.sweep)
	held := true
	for _, c := range claims {
		held = held && c.Pass
	}
	return FormatClaims(claims), held, nil
}

// Render writes each name's text to w in turn: an experiment and a
// newline, All for "all", Verify's table for "verify". It checks every
// name before running anything, and reports whether every claim held.
func (s *Session) Render(w io.Writer, names []string) (held bool, err error) {
	for _, name := range names {
		if name != "all" && name != "verify" && !slices.Contains(IDs(), name) {
			return false, fmt.Errorf("experiments: unknown experiment %q", name)
		}
	}
	held = true
	for _, name := range names {
		var out string
		ok := true
		switch name {
		case "all":
			out, err = s.All()
		case "verify":
			out, ok, err = s.Verify()
		default:
			out, err = s.Experiment(name)
			out += "\n"
		}
		if err != nil {
			return false, err
		}
		held = held && ok
		if _, err := io.WriteString(w, out); err != nil {
			return false, err
		}
	}
	return held, nil
}
