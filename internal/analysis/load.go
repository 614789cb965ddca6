package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // directory on disk
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by filename
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module without the
// go/packages machinery (the build is offline and dependency-free).
// Module-internal imports resolve directly against the module directory;
// standard-library imports go through the stdlib source importer, which
// type-checks GOROOT sources and therefore needs no pre-compiled export
// data.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader locates the enclosing module of dir (by walking up to
// go.mod) and prepares a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			mod := modulePath(data)
			if mod == "" {
				return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
			}
			fset := token.NewFileSet()
			return &Loader{
				Fset:       fset,
				ModulePath: mod,
				ModuleDir:  root,
				std:        importer.ForCompiler(fset, "source", nil),
				pkgs:       map[string]*Package{},
				loading:    map[string]bool{},
			}, nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// DirImportPath maps a directory inside the module to its import path.
func (l *Loader) DirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in dir under the given
// import path (normally DirImportPath(dir); tests override it to place
// a fixture corpus at an arbitrary path). Results are cached per import
// path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		ok, err := buildsHere(dir, e)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: module-internal
// paths load from disk, everything else defers to the stdlib source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ExpandPatterns resolves command-line package patterns relative to the
// module: "./..." style patterns walk the tree (skipping testdata,
// hidden and underscore directories, and the artifacts tree), plain
// paths name a single package directory. The result is a sorted list of
// directories containing at least one non-test Go file.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !recursive {
			ok, err := hasGoFiles(pat)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("analysis: no Go files in %s", pat)
			}
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == "artifacts" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if ok, err := buildsHere(dir, e); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// buildsHere reports whether e is a non-test Go file that `go build`
// would compile in dir for the current target: its _GOOS/_GOARCH name
// suffix and //go:build line both match build.Default. A kernel_amd64.go
// and its `!amd64` twin may declare the same identifiers; only one of
// them is the package.
func buildsHere(dir string, e os.DirEntry) (bool, error) {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}
