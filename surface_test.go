package repro_test

// The surface guard: every exported package-level identifier and every
// exported method under internal/ must be reached by code that runs — an
// experiment, a CLI, an example or the benchmark module — every exported
// field of an exported struct type there must be both written and read by
// such code, and every flag a cmd/ binary defines must be passed by
// something that runs that binary. What is not is named in
// surfaceAllowlist with the reason it stays. The check runs both ways: an
// allowlist entry whose target is gone, or has gained a use, fails too, so
// the list cannot go stale.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// surfaceAllowlist names what stays without a use, with the reason. Keys
// are "pkg.Name" for a package-level identifier, "pkg.Type.Method" for a
// method and "pkg.Type.Field" for a field, pkg being the package's path
// under internal/, and "cmd/name -flag" for a flag.
var surfaceAllowlist = map[string]string{
	"obs.NewRing":              "the planned decision flight recorder (ROADMAP.md, observability item) keeps the last N decisions in a Ring",
	"middlebox.NewNAT":         "the only stateful rewriter; wire.TestDifferentialStateful uses it to pin state agreement between the simulator and the wire",
	"packet.IdentityPseudonym": "wire value 1 of the identity-scheme byte, mirrored by trust.Pseudonymous",
	"policy.Evaluate":          "the tree-walking reference that TestCompiledDocumentMatchesEvaluate compares the VM against",

	"chaos.Plan.Encode":              "FuzzFaultPlan (make fuzz-smoke) checks the canonical-form round trip through it",
	"fiber.Facility.DelaySim":        "the packet-level cross-check of E22's fluid TDM model: TestDelaySimWFQHoldsAtPacketLevel runs the tenants through qos's WFQ link",
	"gametheory.Game.Nash2x2":        "the exact 2x2 solver whose equilibria TestNash2x2HasZeroExploitability feeds to Exploitability, the metric E20 reports",
	"netsim.Network.InjectArrival":   "the simulator side of the wire differential harness (wire.TestDifferentialDecisions and TestDifferentialStateful)",
	"obs.Ring.Events":                "the read side of the Ring that obs.NewRing's entry keeps; TestRingSink and netsim's trace tests read events through it",
	"policy.Program.Run":             "the env-map entry to the VM that the differential suite drives against policy.Evaluate, and the reference TestRunSlotsMatchesRun holds RunSlots to (make policy-smoke)",
	"wire.MultipathSender.HandleAck": "the ACK entry point TestMultipathDifferentialDecisions scripts to pin the wire sender's decision log to the simulator's",
	"wire.MultipathSender.SetTrace":  "records the decision log TestMultipathDifferentialDecisions compares with golden_mp_decisions.txt",

	"wire.MPPath.Hops":                 "the interior waypoints of a striped path, which TestMultipathDifferentialDecisions sets to replay the simulator's candidate paths; the wire's own paths are direct",
	"wire.MultipathSenderConfig.Clock": "the timer seam TestMultipathDifferentialDecisions sets to a SimClock to replay scripted ACKs against the simulator; tussled runs on the wall clock",
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
// violation, sorted: a surface entry lacking a use that allow does not
// name, an allow entry that names no such entry, and an allow entry that
// has gained a use.
func checkSurface(fsys fs.FS, allow map[string]string) ([]string, error) {
	lacks, err := scanSurface(fsys)
	if err != nil {
		return nil, err
	}
	var problems []string
	for id, lack := range lacks {
		_, listed := allow[id]
		switch {
		case lack != "" && !listed:
			problems = append(problems, fmt.Sprintf("%s %s: delete it, or allowlist it with a reason", id, lack))
		case lack == "" && listed:
			problems = append(problems, fmt.Sprintf("%s is allowlisted but now has a use: remove its entry", id))
		}
	}
	for id := range allow {
		if _, ok := lacks[id]; !ok {
			problems = append(problems, fmt.Sprintf("%s is allowlisted but not declared: remove its entry", id))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// unusedWhy says what an unused identifier, method or flag lacks.
func unusedWhy(id string) string {
	switch {
	case strings.HasPrefix(id, "cmd/"):
		return "is passed by no test of its command, Make target, CI step or bench/run.sh line"
	case strings.Count(path.Base(id), ".") == 2:
		return "has no non-test call and satisfies no interface in use"
	}
	return "has no non-test reference"
}

// surfaceInterfaces are the standard interfaces whose methods count as
// used without being named: the runtime, fmt, sort, flag, io and json
// call them through values handed over as any or through their own
// signatures.
var surfaceInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"sort", "Interface"}, {"flag", "Value"},
	{"io", "Writer"}, {"encoding/json", "Marshaler"},
}

// stdImporter loads standard-library packages from their export data;
// one instance is shared so each package is read once per test binary.
var stdImporter = importer.Default()

// scanSurface maps each surface entry to what it lacks, or to "" when it
// has its uses:
//
//   - an exported package-level func, type, var or const declared in a
//     non-test file under internal/ is used when another declaration of a
//     non-test file refers to it. A use inside its own declaration (a
//     recursive call, a self-referential type) does not count, nor does a
//     type's use in its own methods;
//   - an exported method of a type declared there is used when non-test
//     code outside the method selects it (a call, a method value or a
//     method expression), or when the type or its pointer satisfies an
//     interface that non-test code names, or one of surfaceInterfaces,
//     and the method belongs to that interface;
//   - an exported field of an exported struct type declared there must be
//     written and read by non-test code, as fieldAccess tells them apart;
//     a field with a json tag counts as both, since the codec writes and
//     reads it;
//   - a flag a cmd/NAME binary defines through package flag is used when
//     a _test.go file of cmd/NAME has the string literal "-flag" (or
//     "-flag=..."), or when a line of the Makefile, of a CI workflow or
//     of bench/run.sh passes -flag to that binary: after ./cmd/NAME, or
//     after the path a "go build -o PATH ./cmd/NAME" in the same file
//     wrote, and before the next shell operator.
//
// Selectors are resolved with go/types over every non-test package whose
// build constraints hold on this platform. Directories named testdata or
// starting with a dot (a module cache, say) are skipped.
func scanSurface(fsys fs.FS) (map[string]string, error) {
	modPath, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgFiles := map[string][]*ast.File{} // dir -> non-test files
	testLits := map[string][]string{}    // cmd dir -> string literals of its tests
	ctxt := build.Default
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }
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
		dir := path.Dir(p)
		isTest := strings.HasSuffix(p, "_test.go")
		if !strings.HasSuffix(p, ".go") || (isTest && !strings.HasPrefix(dir, "cmd/")) {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if isTest {
			testLits[dir] = append(testLits[dir], stringLits(f)...)
		} else {
			pkgFiles[dir] = append(pkgFiles[dir], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	checked, err := typeCheck(fset, modPath, pkgFiles)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(checked))
	for dir := range checked {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	// Declare the surface: internal/ objects, methods and fields, cmd/
	// flags.
	declared := map[types.Object]string{} // object -> id
	fields := map[*types.Var]string{}     // field -> id
	codec := map[*types.Var]bool{}        // json-tagged fields
	var named []*types.Named
	for _, dir := range dirs {
		rel, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			continue
		}
		scope := checked[dir].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				declared[obj] = rel + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if _, isIface := n.Underlying().(*types.Interface); isIface {
				continue
			}
			named = append(named, n)
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					declared[m] = rel + "." + name + "." + m.Name()
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && tn.Exported() {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						fields[f] = rel + "." + name + "." + f.Name()
						tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json")
						codec[f] = ok && tag != "-"
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, id := range declared {
		used[id] = false
	}
	flagLines, err := runnerFlags(fsys)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		passed := map[string]bool{}
		for _, lit := range testLits[dir] {
			name, _, _ := strings.Cut(strings.TrimLeft(lit, "-"), "=")
			if strings.HasPrefix(lit, "-") && name != "" {
				passed[name] = true
			}
		}
		for _, name := range flagLines[path.Base(dir)] {
			passed[name] = true
		}
		for _, name := range definedFlags(checked[dir]) {
			id := dir + " -" + name
			used[id] = used[id] || passed[name]
		}
	}

	// Mark uses, skipping those inside the using object's own declaration,
	// and collect the interfaces non-test code names.
	ifaces := map[*types.Interface]bool{}
	acc := fieldAccess{write: map[*types.Var]bool{}, read: map[*types.Var]bool{}}
	for _, dir := range dirs {
		c := checked[dir]
		acc.info = c.info
		for _, f := range c.files {
			acc.visit(f)
			for _, decl := range f.Decls {
				forEachOwnedNode(decl, c.info, func(n ast.Node, own map[types.Object]bool) {
					ast.Inspect(n, func(n ast.Node) bool {
						if it, ok := n.(*ast.InterfaceType); ok {
							if iface, ok := c.info.TypeOf(it).(*types.Interface); ok {
								ifaces[iface] = true
							}
						}
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := c.info.Uses[id]
						if fn, ok := obj.(*types.Func); ok {
							obj = fn.Origin()
						}
						if obj == nil || own[obj] {
							return true
						}
						if tn, ok := obj.(*types.TypeName); ok {
							if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
								ifaces[iface] = true
							}
						}
						if sid, ok := declared[obj]; ok {
							used[sid] = true
						}
						return true
					})
				})
			}
		}
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, si := range surfaceInterfaces {
		pkg, err := stdImporter.Import(si[0])
		if err != nil {
			return nil, err
		}
		ifaces[pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)] = true
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 || n.NumMethods() == 0 {
			continue
		}
		ptr := types.NewPointer(n)
		for iface := range ifaces {
			if iface.NumMethods() == 0 || !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if sid, ok := declared[obj]; ok {
					used[sid] = true
				}
			}
		}
	}

	lacks := map[string]string{}
	for id, u := range used {
		lacks[id] = ""
		if !u {
			lacks[id] = unusedWhy(id)
		}
	}
	for f, id := range fields {
		w, r := acc.write[f] || codec[f], acc.read[f] || codec[f]
		switch {
		case !w && !r:
			lacks[id] = "has no non-test write or read"
		case !w:
			lacks[id] = "has no non-test write"
		case !r:
			lacks[id] = "has no non-test read"
		default:
			lacks[id] = ""
		}
	}
	return lacks, nil
}

// fieldAccess records which struct fields non-test code writes and which
// it reads. A field is written by a composite literal, keyed or
// positional, and as the target of =, op= or ++/--, directly or through a
// chain of selectors, indexes and dereferences below it (s.Drops[k]++
// writes Drops); x.F = append(x.F, v) only writes F. Taking F's address,
// explicitly or by calling a pointer method on it or slicing it when it
// is an array, both writes and reads it. Any other evaluation reads it,
// and so does handing a value that holds it to fmt, reflect or an
// encoding package, or comparing such a value with == or !=.
type fieldAccess struct {
	info        *types.Info
	write, read map[*types.Var]bool
}

func (a *fieldAccess) mark(obj types.Object, write, read bool) {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	v = v.Origin()
	a.write[v] = a.write[v] || write
	a.read[v] = a.read[v] || read
}

func (a *fieldAccess) visit(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				a.target(lhs, true, false)
			}
			for i, rhs := range n.Rhs {
				read := []ast.Expr{rhs}
				// x.F = append(x.F, v...) reads only the appended values.
				if call, ok := rhs.(*ast.CallExpr); ok && len(n.Lhs) == len(n.Rhs) && a.builtin(call) == "append" &&
					types.ExprString(call.Args[0]) == types.ExprString(n.Lhs[i]) {
					read = call.Args[1:]
				}
				for _, e := range read {
					a.visit(e)
				}
			}
			return false
		case *ast.IncDecStmt:
			a.target(n.X, true, false)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				a.target(n.X, true, true)
				return false
			}
		case *ast.SliceExpr:
			if _, ok := a.info.TypeOf(n.X).Underlying().(*types.Array); ok {
				a.target(n.X, true, true)
				for _, e := range []ast.Expr{n.Low, n.High, n.Max} {
					if e != nil {
						a.visit(e)
					}
				}
				return false
			}
		case *ast.SelectorExpr:
			sel := a.info.Selections[n]
			if sel == nil {
				return true
			}
			switch sel.Kind() {
			case types.FieldVal:
				a.mark(sel.Obj(), false, true)
			case types.MethodVal:
				// A pointer method called on a value takes its address.
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrOperand := a.info.TypeOf(n.X).Underlying().(*types.Pointer)
				if ptrRecv && !ptrOperand {
					a.target(n.X, true, true)
					return false
				}
			}
		case *ast.CompositeLit:
			t := a.info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					a.mark(a.info.Uses[kv.Key.(*ast.Ident)], true, false)
				} else {
					a.mark(st.Field(i), true, false)
				}
			}
		case *ast.CallExpr:
			if fn := callee(a.info, n); fn != nil && fn.Pkg() != nil {
				if p := fn.Pkg().Path(); p == "fmt" || p == "reflect" || strings.HasPrefix(p, "encoding/") {
					for _, arg := range n.Args {
						a.readAll(a.info.TypeOf(arg), map[types.Type]bool{})
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				switch a.info.TypeOf(n.X).Underlying().(type) {
				case *types.Struct, *types.Array:
					a.readAll(a.info.TypeOf(n.X), map[types.Type]bool{})
				}
			}
		}
		return true
	})
}

// target marks the fields along an assigned, incremented or addressed
// expression, and visits the index expressions on the way as reads.
func (a *fieldAccess) target(e ast.Expr, write, read bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			a.visit(x.Index)
			e = x.X
		case *ast.SelectorExpr:
			sel := a.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				a.visit(e)
				return
			}
			a.mark(sel.Obj(), write, read)
			e = x.X
		default:
			a.visit(e)
			return
		}
	}
}

// readAll marks every field a value of type t holds, through pointers,
// containers and nested structs, as read.
func (a *fieldAccess) readAll(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		a.readAll(u.Elem(), seen)
	case *types.Slice:
		a.readAll(u.Elem(), seen)
	case *types.Array:
		a.readAll(u.Elem(), seen)
	case *types.Map:
		a.readAll(u.Key(), seen)
		a.readAll(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			a.mark(u.Field(i), false, true)
			a.readAll(u.Field(i).Type(), seen)
		}
	}
}

// builtin names the builtin a call invokes, or is "".
func (a *fieldAccess) builtin(call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := a.info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// callee returns the function or method a call invokes by name, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkedPkg is one type-checked package.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheck type-checks every package of the tree, resolving imports of
// the module to its directories and anything else to the standard
// library.
func typeCheck(fset *token.FileSet, modPath string, pkgFiles map[string][]*ast.File) (map[string]*checkedPkg, error) {
	checked := map[string]*checkedPkg{}
	var check func(dir string) (*checkedPkg, error)
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		dir, ok := strings.CutPrefix(ipath, modPath+"/")
		if ipath == modPath {
			dir, ok = ".", true
		}
		if !ok {
			return stdImporter.Import(ipath)
		}
		if _, ok := pkgFiles[dir]; !ok {
			return nil, fmt.Errorf("no package in %s", dir)
		}
		c, err := check(dir)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	})
	check = func(dir string) (*checkedPkg, error) {
		if c, ok := checked[dir]; ok {
			if c == nil {
				return nil, fmt.Errorf("import cycle through %s", dir)
			}
			return c, nil
		}
		checked[dir] = nil
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		ipath := modPath + "/" + dir
		if dir == "." {
			ipath = modPath
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(ipath, fset, pkgFiles[dir], info)
		if err != nil {
			return nil, err
		}
		c := &checkedPkg{pkg, pkgFiles[dir], info}
		checked[dir] = c
		return c, nil
	}
	for dir := range pkgFiles {
		if _, err := check(dir); err != nil {
			return nil, err
		}
	}
	return checked, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

// forEachOwnedNode calls fn on the parts of a top-level declaration that
// can refer to other objects, with the objects whose uses there do not
// count: the declared objects themselves, and for a method its receiver
// type too.
func forEachOwnedNode(decl ast.Decl, info *types.Info, fn func(ast.Node, map[types.Object]bool)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := map[types.Object]bool{info.Defs[d.Name]: true}
		if d.Recv != nil {
			if sig, ok := info.Defs[d.Name].Type().(*types.Signature); ok {
				t := sig.Recv().Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok {
					own[n.Obj()] = true
				}
			}
		}
		fn(d.Type, own)
		if d.Recv != nil {
			fn(d.Recv, own)
		}
		if d.Body != nil {
			fn(d.Body, own)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own := map[types.Object]bool{info.Defs[s.Name]: true}
				if s.TypeParams != nil {
					fn(s.TypeParams, own)
				}
				fn(s.Type, own)
			case *ast.ValueSpec:
				own := map[types.Object]bool{}
				for _, n := range s.Names {
					own[info.Defs[n]] = true
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

// flagDefiners are the package flag functions, and *flag.FlagSet methods,
// that define a flag; the first string constant among their arguments is
// the flag's name.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "BoolVar": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "Int64": true,
	"Int64Var": true, "IntVar": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "Uint64": true, "Uint64Var": true, "UintVar": true, "Var": true,
}

// definedFlags lists the names of the flags a package defines.
func definedFlags(c *checkedPkg) []string {
	var names []string
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(c.info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiners[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				if v := c.info.Types[arg].Value; v != nil && v.Kind() == constant.String {
					names = append(names, constant.StringVal(v))
					break
				}
			}
			return true
		})
	}
	return names
}

// stringLits lists the values of a file's string literals.
func stringLits(f *ast.File) []string {
	var lits []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				lits = append(lits, s)
			}
		}
		return true
	})
	return lits
}

// runnerFlags maps each cmd/ binary's name to the flags that the
// Makefile, the CI workflows and bench/run.sh pass to it. A missing file
// passes nothing.
func runnerFlags(fsys fs.FS) (map[string][]string, error) {
	files, err := fs.Glob(fsys, ".github/workflows/*.y*ml")
	if err != nil {
		return nil, err
	}
	out := map[string][]string{}
	for _, name := range append([]string{"Makefile", "bench/run.sh"}, files...) {
		src, err := fs.ReadFile(fsys, name)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return nil, err
		}
		bins := map[string]string{} // built binary path -> command
		text := strings.ReplaceAll(string(src), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			words := strings.Fields(line)
			if len(words) > 0 && strings.HasPrefix(words[0], "#") {
				continue
			}
			for i, w := range words {
				cmd, ok := strings.CutPrefix(w, "./cmd/")
				if ok && i >= 2 && words[i-2] == "-o" {
					bins[words[i-1]] = cmd
					continue
				}
				if !ok {
					if cmd, ok = bins[w]; !ok {
						continue
					}
				}
				for _, arg := range words[i+1:] {
					if strings.ContainsAny(arg, ";|&<>()`") {
						break
					}
					if flag, ok := strings.CutPrefix(arg, "-"); ok {
						flag, _, _ = strings.Cut(strings.TrimPrefix(flag, "-"), "=")
						out[cmd] = append(out[cmd], flag)
					}
				}
			}
		}
	}
	return out, nil
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
			want: []string{
				"a.T has no non-test reference: delete it, or allowlist it with a reason",
				"a.T.Get has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason",
			},
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
			want:  []string{"a.F is allowlisted but now has a use: remove its entry"},
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
		{
			name: "dead method",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{}\nfunc (T) Used() {}\nfunc (T) Dead() {}\nfunc (t T) Self(n int) { if n > 0 { t.Self(n - 1) } }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { a.T{}.Used() }\n",
			},
			want: []string{
				"a.T.Dead has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason",
				"a.T.Self has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason",
			},
		},
		{
			name: "method called only from a test file",
			files: map[string]string{
				"internal/a/a.go":      "package a\ntype T struct{}\nfunc New() *T { return &T{} }\nfunc (*T) M() {}\n",
				"internal/a/a_test.go": "package a\nfunc g() { New().M() }\n",
				"cmd/c/main.go":        "package main\nimport \"m/internal/a\"\nfunc main() { _ = a.New() }\n",
				"cmd/c/main_test.go":   "package main\nimport \"m/internal/a\"\nfunc h() { a.New().M() }\n",
			},
			want: []string{"a.T.M has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason"},
		},
		{
			name: "method reached only through an interface",
			files: map[string]string{
				"internal/a/a.go": "package a\nimport \"fmt\"\n" +
					"type Shape interface{ Area() int }\n" +
					"type Sq struct{ N int }\n" +
					"func (s Sq) Area() int { return s.N * s.N }\n" +
					"func (s *Sq) Grow() { s.N++ }\n" +
					"func (s *Sq) String() string { return fmt.Sprint(s.N) }\n" +
					"func (s *Sq) Perimeter() int { return 4 * s.N }\n" +
					"func Total(xs ...Shape) (t int) { for _, x := range xs { t += x.Area() }; return t }\n",
				"internal/b/b.go": "package b\ntype Grower = interface{ Grow() }\n",
				"cmd/c/main.go": "package main\nimport (\n\t\"m/internal/a\"\n\t\"m/internal/b\"\n)\n" +
					"func main() { var g b.Grower = &a.Sq{}; _ = g; _ = a.Total(a.Sq{N: 2}) }\n",
			},
			want: []string{"a.Sq.Perimeter has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason"},
		},
		{
			name: "method only bench calls",
			files: map[string]string{
				"internal/a/a.go":      "package a\ntype T struct{}\nfunc (T) Bench() {}\nfunc (T) Test() {}\n",
				"bench/main.go":        "package main\nimport \"m/internal/a\"\nfunc main() { a.T{}.Bench() }\n",
				"bench/smoke_test.go":  "package main\nimport \"m/internal/a\"\nfunc h() { a.T{}.Test() }\n",
				"examples/e/main.go":   "package main\nfunc main() {}\n",
				"examples/e/e_test.go": "package main\nimport \"m/internal/a\"\nfunc h() { a.T{}.Test() }\n",
			},
			want: []string{"a.T.Test has no non-test call and satisfies no interface in use: delete it, or allowlist it with a reason"},
		},
		{
			name: "allowlisted method gained a caller",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{}\nfunc (T) M() {}\nfunc (T) Kept() {}\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { f := a.T.M; f(a.T{}) }\n",
			},
			allow: map[string]string{"a.T.M": "reason", "a.T.Kept": "reason"},
			want:  []string{"a.T.M is allowlisted but now has a use: remove its entry"},
		},
		{
			name: "flag nothing passes",
			files: map[string]string{
				"cmd/c/main.go": "package main\nimport \"flag\"\nfunc main() {\n" +
					"\tfs := flag.NewFlagSet(\"c\", flag.ExitOnError)\n" +
					"\tvar n int\n\tfs.IntVar(&n, \"tested\", 1, \"usage\")\n" +
					"\t_ = fs.String(\"built\", \"\", \"usage\")\n" +
					"\t_ = flag.Bool(\"ci\", false, \"usage\")\n" +
					"\t_ = flag.Bool(\"dead\", false, \"usage\")\n}\n",
				"cmd/c/main_test.go":         "package main\nvar args = []string{\"-tested=2\"}\n",
				"Makefile":                   "smoke:\n\tgo build -o /tmp/c-bin ./cmd/c\n\t/tmp/c-bin \\\n\t  -built x > /tmp/out; echo -dead\n",
				".github/workflows/ci.yml":   "jobs:\n  x:\n    steps:\n      - run: go run ./cmd/c -ci\n",
				".github/workflows/other.md": "go run ./cmd/c -dead\n",
			},
			want: []string{"cmd/c -dead is passed by no test of its command, Make target, CI step or bench/run.sh line: delete it, or allowlist it with a reason"},
		},
		{
			name: "flag passed only in README",
			files: map[string]string{
				"cmd/c/main.go": "package main\nimport \"flag\"\nfunc main() { _ = flag.Bool(\"v\", false, \"usage\") }\n",
				"README.md":     "    go run ./cmd/c -v\n",
			},
			want: []string{"cmd/c -v is passed by no test of its command, Make target, CI step or bench/run.sh line: delete it, or allowlist it with a reason"},
		},
		{
			name: "flag passed by a Make line for another binary",
			files: map[string]string{
				"cmd/c/main.go":      "package main\nimport \"flag\"\nfunc main() { _ = flag.Bool(\"v\", false, \"usage\") }\n",
				"cmd/d/main.go":      "package main\nimport \"flag\"\nfunc main() { _ = flag.Bool(\"v\", false, \"usage\"); _ = flag.Int(\"n\", 0, \"usage\") }\n",
				"cmd/d/main_test.go": "package main\nvar args = []string{\"-n\", \"3\"}\n",
				"cmd/c/c_test.go":    "package main\nvar args = []string{\"-n\", \"3\"}\n",
				"Makefile":           "t:\n\tgo run ./cmd/d -v\n",
			},
			want: []string{"cmd/c -v is passed by no test of its command, Make target, CI step or bench/run.sh line: delete it, or allowlist it with a reason"},
		},
		{
			name: "build constraints select the files",
			files: map[string]string{
				"internal/a/a_other.go":  "//go:build !linux\n\npackage a\nfunc F() {}\n",
				"internal/a/a_linux.go":  "package a\nfunc F() {}\nfunc G() {}\n",
				"cmd/c/main.go":          "package main\nimport \"m/internal/a\"\nfunc main() { a.F() }\n",
				"cmd/c/main_windows.go":  "package main\nimport \"m/internal/a\"\nfunc init() { a.G() }\n",
				"internal/a/ignored.go":  "//go:build ignore\n\npackage main\n",
				"internal/a/_skipped.go": "package a\nfunc G() {}\n",
			},
			want: []string{"a.G has no non-test reference: delete it, or allowlist it with a reason"},
		},
		{
			name: "field written by a keyed literal",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F, G int }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { t := a.T{F: 1}; println(t.F, t.G) }\n",
			},
			want: []string{"a.T.G has no non-test write: delete it, or allowlist it with a reason"},
		},
		{
			name: "fields written by a positional literal",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F, G int }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { t := a.T{1, 2}; println(t.F) }\n",
			},
			want: []string{"a.T.G has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "field written by assignment",
			files: map[string]string{
				"internal/a/a.go":      "package a\ntype T struct{ F, G, H int }\n",
				"internal/a/a_test.go": "package a\nfunc set(t *T) { t.G = 1 }\n",
				"cmd/c/main.go":        "package main\nimport \"m/internal/a\"\nfunc main() { var t a.T; t.F = 1; println(t.F, t.G, t.H) }\n",
			},
			want: []string{
				"a.T.G has no non-test write: delete it, or allowlist it with a reason",
				"a.T.H has no non-test write: delete it, or allowlist it with a reason",
			},
		},
		{
			name: "field only updated in place",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F, G int }\nfunc (t *T) Add(n int) { t.F += n; t.G -= n }\nfunc (t *T) Net() int { return t.G }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { var t a.T; t.Add(1); println(t.Net()) }\n",
			},
			want: []string{"a.T.F has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "field only incremented through an index",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype S struct{ Drops map[string]int; Hops []int; Keys []string }\n" +
					"func (s *S) Drop(i int) { s.Drops[s.Keys[i]]++; s.Hops[i]-- }\n",
				"cmd/c/main.go": "package main\nimport \"m/internal/a\"\n" +
					"func main() { s := a.S{Drops: map[string]int{}, Hops: []int{0}, Keys: []string{\"x\"}}; s.Drop(0); println(len(s.Hops)) }\n",
			},
			want: []string{"a.S.Drops has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "field written through its address",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F, G int }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { var t a.T; p := &t.F; *p = 1; println(t.G) }\n",
			},
			want: []string{"a.T.G has no non-test write: delete it, or allowlist it with a reason"},
		},
		{
			name: "field written by a pointer method",
			files: map[string]string{
				"internal/a/a.go": "package a\nimport \"strings\"\ntype T struct{ B strings.Builder; S *strings.Builder }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { var t a.T; t.B.WriteString(\"x\"); t.S.WriteString(\"y\") }\n",
			},
			want: []string{"a.T.S has no non-test write: delete it, or allowlist it with a reason"},
		},
		{
			name: "array field written through a slice of it",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype Sum struct{ SHA [32]byte; Parts [][]byte }\n",
				"cmd/c/main.go": "package main\nimport (\n\t\"crypto/sha256\"\n\t\"m/internal/a\"\n)\n" +
					"func main() { var s a.Sum; h := sha256.New(); h.Sum(s.SHA[:0]); h.Sum(s.Parts[0][:0]) }\n",
			},
			want: []string{"a.Sum.Parts has no non-test write: delete it, or allowlist it with a reason"},
		},
		{
			name: "append-only field",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype Ledger struct{ Entries, Seen []int }\n" +
					"func (l *Ledger) Add(v int) { l.Entries = append(l.Entries, v); l.Seen = append(l.Seen, len(l.Entries)) }\n",
				"internal/a/a_test.go": "package a\nvar _ = (&Ledger{}).Seen[0]\n",
				"cmd/c/main.go":        "package main\nimport \"m/internal/a\"\nfunc main() { var l a.Ledger; l.Add(1) }\n",
			},
			want: []string{"a.Ledger.Seen has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "fields read by fmt",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype In struct{ X int }\ntype T struct{ F int; In *In }\ntype U struct{ G int }\n",
				"cmd/c/main.go": "package main\nimport (\n\t\"fmt\"\n\t\"m/internal/a\"\n)\n" +
					"func main() { fmt.Println([]a.T{{F: 1, In: &a.In{X: 2}}}); _ = a.U{G: 3} }\n",
			},
			want: []string{"a.U.G has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "fields read by an encoding",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F int }\ntype U struct{ G int }\n",
				"cmd/c/main.go": "package main\nimport (\n\t\"encoding/json\"\n\t\"m/internal/a\"\n)\n" +
					"func main() { _, _ = json.Marshal(&a.T{F: 1}); _ = a.U{G: 3} }\n",
			},
			want: []string{"a.U.G has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "fields read by reflect",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F int }\ntype U struct{ G int }\n",
				"cmd/c/main.go": "package main\nimport (\n\t\"reflect\"\n\t\"m/internal/a\"\n)\n" +
					"func main() { _ = reflect.DeepEqual(a.T{F: 1}, a.T{}); _ = a.U{G: 3} }\n",
			},
			want: []string{"a.U.G has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "fields read by ==",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F int }\ntype U struct{ G int }\n",
				"cmd/c/main.go": "package main\nimport \"m/internal/a\"\n" +
					"func main() { println(a.T{F: 1} == a.T{}); u := &a.U{G: 3}; println(u != &a.U{G: 4}) }\n",
			},
			want: []string{"a.U.G has no non-test read: delete it, or allowlist it with a reason"},
		},
		{
			name: "json-tagged fields need no use",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct {\n\tF int `json:\"f\"`\n\tG int `json:\"-\"`\n\tH int\n}\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { _ = a.T{} }\n",
			},
			want: []string{
				"a.T.G has no non-test write or read: delete it, or allowlist it with a reason",
				"a.T.H has no non-test write or read: delete it, or allowlist it with a reason",
			},
		},
		{
			name: "allowlisted field gained a use",
			files: map[string]string{
				"internal/a/a.go": "package a\ntype T struct{ F, Seam int }\n",
				"cmd/c/main.go":   "package main\nimport \"m/internal/a\"\nfunc main() { t := a.T{F: 1}; println(t.F, t.Seam) }\n",
			},
			allow: map[string]string{"a.T.F": "reason", "a.T.Seam": "reason"},
			want:  []string{"a.T.F is allowlisted but now has a use: remove its entry"},
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
