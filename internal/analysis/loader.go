package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader type-checks a set of packages from source, resolving the
// remaining imports (standard library, other modules) from compiler
// export data. Source packages are looked up through SrcFiles; export
// data through Exports. The zero value is not usable; call NewLoader.
type Loader struct {
	Fset *token.FileSet

	// SrcFiles maps an import path to the .go files to type-check it
	// from; packages absent from the map are imported via Exports.
	SrcFiles map[string][]string
	// Exports maps an import path to a gc export-data file
	// (produced by `go list -export`).
	Exports map[string]string

	loaded map[string]*LoadedPackage
	active map[string]bool // import-cycle guard
	gc     types.Importer
}

// NewLoader returns a Loader over a fresh file set.
func NewLoader() *Loader {
	l := &Loader{
		Fset:     token.NewFileSet(),
		SrcFiles: map[string][]string{},
		Exports:  map[string]string{},
		loaded:   map[string]*LoadedPackage{},
		active:   map[string]bool{},
	}
	l.gc = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.Exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// Import implements types.Importer so the loader can hand itself to
// go/types: source packages are type-checked recursively, everything
// else comes from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if lp, ok := l.loaded[path]; ok {
		return lp.Pkg, nil
	}
	if _, ok := l.SrcFiles[path]; ok {
		lp, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return l.gc.Import(path)
}

// Load type-checks the source package at path (which must be present
// in SrcFiles), memoizing the result.
func (l *Loader) Load(path string) (*LoadedPackage, error) {
	if lp, ok := l.loaded[path]; ok {
		return lp, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	files, ok := l.SrcFiles[path]
	if !ok {
		return nil, fmt.Errorf("no source files registered for %q", path)
	}
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.Fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	lp := &LoadedPackage{Path: path, Files: parsed, Pkg: pkg, Info: info}
	l.loaded[path] = lp
	return lp, nil
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Incomplete bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded packages in dependency order (dependencies
// before dependents, as go list guarantees).
func GoList(dir string, patterns ...string) ([]listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Imports,Export,Standard,Module,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errBuf.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(&out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadModule loads every package matched by patterns that belongs to
// the main module rooted at dir, type-checking them from source in
// dependency order; all other packages resolve from export data. It
// returns the module packages in dependency order.
func LoadModule(dir string, patterns ...string) (*Loader, []*LoadedPackage, error) {
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	// The module being analyzed is the one whose packages have source
	// directories under dir.
	absDir, _ := filepath.Abs(dir)
	l := NewLoader()
	var order []string
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		inModule := !p.Standard && p.Module != nil && p.Dir != "" && underDir(p.Dir, absDir)
		if inModule {
			var files []string
			for _, f := range p.GoFiles {
				files = append(files, filepath.Join(p.Dir, f))
			}
			l.SrcFiles[p.ImportPath] = files
			order = append(order, p.ImportPath)
		} else if p.Export != "" {
			l.Exports[p.ImportPath] = p.Export
		}
	}
	var loaded []*LoadedPackage
	for _, path := range order {
		lp, err := l.Load(path)
		if err != nil {
			return nil, nil, err
		}
		loaded = append(loaded, lp)
	}
	return l, loaded, nil
}

func underDir(path, root string) bool {
	abs, err := filepath.Abs(path)
	if err != nil {
		return false
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil {
		return false
	}
	return rel == "." || (!strings.HasPrefix(rel, "..") && rel != "")
}

// StdExports resolves export-data files for the given non-source
// import paths (typically standard-library imports of testdata
// packages) and merges them into the loader. dir anchors the `go
// list` invocation (any directory inside a module works).
func (l *Loader) StdExports(dir string, paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	pkgs, err := GoList(dir, paths...)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			if _, ok := l.SrcFiles[p.ImportPath]; !ok {
				l.Exports[p.ImportPath] = p.Export
			}
		}
	}
	return nil
}
