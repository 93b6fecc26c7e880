package repro_test

// The surface guard: every exported package-level identifier under
// internal/ must be reached by code that runs — an experiment, a CLI, an
// example or the benchmark module — or be named in surfaceAllowlist with
// the reason it stays. The check runs both ways: an allowlist entry whose
// identifier is gone, or has gained a non-test reference, fails too, so
// the list cannot go stale.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// surfaceAllowlist names the exported identifiers that stay without a
// non-test reference, keyed by package path under internal/ and name.
var surfaceAllowlist = map[string]string{
	"obs.NewRing":              "the planned decision flight recorder (ROADMAP.md, observability item) keeps the last N decisions in a Ring",
	"middlebox.NewNAT":         "the only stateful rewriter; wire.TestDifferentialStateful uses it to pin state agreement between the simulator and the wire",
	"packet.IdentityPseudonym": "wire value 1 of the identity-scheme byte, mirrored by trust.Pseudonymous",
	"policy.Evaluate":          "the tree-walking reference that TestCompiledDocumentMatchesEvaluate compares the VM against",
}

func TestSurface(t *testing.T) {
	problems, err := checkSurface(os.DirFS("."), surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// checkSurface scans the module rooted at fsys and returns one line per
// violation, sorted: an exported identifier under internal/ with no
// non-test reference that allow does not name, an allow entry that names
// no such identifier, and an allow entry that has gained a reference.
func checkSurface(fsys fs.FS, allow map[string]string) ([]string, error) {
	referenced, err := scanSurface(fsys)
	if err != nil {
		return nil, err
	}
	var problems []string
	for id, used := range referenced {
		_, listed := allow[id]
		switch {
		case !used && !listed:
			problems = append(problems, fmt.Sprintf("%s has no non-test reference: delete it, or allowlist it with a reason", id))
		case used && listed:
			problems = append(problems, fmt.Sprintf("%s is allowlisted but now has a non-test reference: remove its entry", id))
		}
	}
	for id := range allow {
		if _, ok := referenced[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s is allowlisted but not declared: remove its entry", id))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// scanSurface maps each exported package-level func, type, var and const
// declared in a non-test file under internal/ — keyed as "pkg.Name", pkg
// being the package's path below internal/ — to whether any non-test
// file in the tree refers to it. A reference is pkg.Name through the
// package's import, or a bare Name inside the declaring package. A use
// inside the identifier's own declaration (a recursive call, a
// self-referential type) does not count, nor does a type's use in its
// own methods, so a type only its own methods mention stays
// unreferenced. Directories named testdata or starting with a dot (a
// module cache, say) are skipped.
func scanSurface(fsys fs.FS) (map[string]bool, error) {
	modPath, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Dir(p), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	pkgName := map[string]string{} // dir -> package name
	declared := map[string]bool{}  // "dir.Name" -> referenced
	for _, f := range files {
		pkgName[f.dir] = f.ast.Name.Name
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, name := range packageLevelNames(f.ast) {
			if ast.IsExported(name) {
				declared[f.dir+"."+name] = false
			}
		}
	}
	mark := func(dir, name string) {
		if _, ok := declared[dir+"."+name]; ok {
			declared[dir+"."+name] = true
		}
	}

	for _, f := range files {
		imports := map[string]string{} // local name -> dir
		for _, spec := range f.ast.Imports {
			ipath, _ := strconv.Unquote(spec.Path.Value) // the parser checked the literal
			rel, ok := strings.CutPrefix(ipath, modPath+"/")
			if !ok {
				continue
			}
			name := pkgName[rel]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name != "" && name != "_" && name != "." {
				imports[name] = rel
			}
		}
		for _, decl := range f.ast.Decls {
			forEachOwnedNode(decl, func(n ast.Node, own map[string]bool) {
				refs(n, func(x, name string) {
					if x != "" {
						if dir, ok := imports[x]; ok {
							mark(dir, name)
							return
						}
						name = x
					}
					if !own[name] {
						mark(f.dir, name)
					}
				})
			})
		}
	}

	out := map[string]bool{}
	for id, used := range declared {
		out[strings.TrimPrefix(id, "internal/")] = used
	}
	return out, nil
}

// modulePath reads the module line of the go.mod at the root of fsys.
func modulePath(fsys fs.FS) (string, error) {
	src, err := fs.ReadFile(fsys, "go.mod")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("go.mod: no module line")
}

// packageLevelNames lists the funcs (not methods), types, vars and
// consts a file declares at package level.
func packageLevelNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}

// forEachOwnedNode calls fn on the parts of a top-level declaration that
// can refer to other identifiers, with the names whose uses there do not
// count: the declared names themselves, or a method's receiver type.
// Declared names and method receivers are not passed on.
func forEachOwnedNode(decl ast.Decl, fn func(ast.Node, map[string]bool)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := map[string]bool{d.Name.Name: true}
		if d.Recv != nil {
			own = map[string]bool{receiverType(d.Recv): true}
		}
		fn(d.Type, own)
		if d.Body != nil {
			fn(d.Body, own)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own := map[string]bool{s.Name.Name: true}
				if s.TypeParams != nil {
					fn(s.TypeParams, own)
				}
				fn(s.Type, own)
			case *ast.ValueSpec:
				own := map[string]bool{}
				for _, n := range s.Names {
					own[n.Name] = true
				}
				if s.Type != nil {
					fn(s.Type, own)
				}
				for _, v := range s.Values {
					fn(v, own)
				}
			}
		}
	}
}

// receiverType returns the name of a method's receiver type.
func receiverType(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// refs reports every identifier n may refer to: ("", Name) for a bare
// identifier and (X, Name) for a selector X.Name whose X is an
// identifier, which is a package or else a bare reference to X. The
// names of struct fields, interface methods and parameters declare
// rather than refer, so they are skipped.
func refs(n ast.Node, fn func(x, name string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				fn(x.Name, n.Sel.Name)
				return false
			}
			refs(n.X, fn)
			return false
		case *ast.Field:
			if n.Type != nil {
				refs(n.Type, fn)
			}
			return false
		case *ast.Ident:
			fn("", n.Name)
		}
		return true
	})
}

func TestCheckSurface(t *testing.T) {
	const mod = "module m\n"
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string
	}{
		{
			name: "dead func",
			files: map[string]string{
				"internal/a/a.go": "package a\nfunc Used() {}\nfunc Dead() {}\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { a.Used() }\n",
			},
			want: []string{"a.Dead has no non-test reference: delete it, or allowlist it with a reason"},
		},
		{
			name: "type only its own methods mention",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ next *T }\nfunc (t *T) Get() *T { return t.next }\n",
			},
			want: []string{"a.T has no non-test reference: delete it, or allowlist it with a reason"},
		},
		{
			name: "name used only from a test file",
			files: map[string]string{
				"internal/a/a.go":      "package a\nfunc F() {}\n",
				"internal/a/a_test.go": "package a\nfunc g() { F() }\n",
				"cmd/c/c_test.go":      "package main\nimport \"m/internal/a\"\nfunc h() { a.F() }\n",
			},
			want: []string{"a.F has no non-test reference: delete it, or allowlist it with a reason"},
		},
		{
			name: "stale allowlist entry",
			files: map[string]string{
				"internal/a/a.go": "package a\n",
			},
			allow: map[string]string{"a.Gone": "reason"},
			want:  []string{"a.Gone is allowlisted but not declared: remove its entry"},
		},
		{
			name: "allowlisted name gained a reference",
			files: map[string]string{
				"internal/a/a.go":    "package a\nfunc F() {}\n",
				"examples/e/main.go": "package main\nimport x \"m/internal/a\"\nfunc main() { x.F() }\n",
			},
			allow: map[string]string{"a.F": "reason"},
			want:  []string{"a.F is allowlisted but now has a non-test reference: remove its entry"},
		},
		{
			name: "const used only by its siblings",
			files: map[string]string{
				"internal/a/a.go": "package a\nconst (\n\tUnit = 1\n\tKilo = 1000 * Unit\n)\n",
				"bench/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { _ = a.Kilo }\n",
			},
		},
		{
			name: "testdata and dot-directories are skipped",
			files: map[string]string{
				"internal/a/a.go":          "package a\nfunc F() {}\n",
				"internal/a/testdata/x.go": "package a\nfunc g() { F() }\n",
				".cache/y.go":              "this does not parse\n",
			},
			want: []string{"a.F has no non-test reference: delete it, or allowlist it with a reason"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fstest.MapFS{"go.mod": {Data: []byte(mod)}}
			for name, src := range tc.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			got, err := checkSurface(fsys, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}
