package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachKeep lists the non-test declarations that production code cannot
// reach and that stay anyway, each with the reason it stays — the way an
// //easybolint:ok directive carries one. Keys are import path, receiver (if
// any) and name. An entry that has become reachable, or names nothing, fails
// the test, so the list cannot rot.
var reachKeep = map[string]string{
	"easybo/internal/linalg.Cholesky.Inverse":        "oracle: TestInverseUpperIntoBitIdentical and the A·A⁻¹ tests compare InverseUpperInto against it",
	"easybo/internal/linalg.Matrix.Mul":              "oracle: the factorization tests rebuild A = L·Lᵀ with it",
	"easybo/internal/linalg.Matrix.T":                "oracle: the same tests, the factor's transpose",
	"easybo/internal/linalg.NewMatrixFromRows":       "fixture: literal matrices in the Cholesky, LU and GP tests",
	"easybo/internal/linalg.Identity":                "oracle: the product tests compare against it",
	"easybo/internal/linalg.Matrix.AddToDiag":        "fixture: randomSPD and the LU round trips make their matrices with it",
	"easybo/internal/linalg.Matrix.MulVec":           "oracle: the LU and Cholesky round trips form b = A·x with it",
	"easybo/internal/linalg/sparse.MatrixOf.Zero":    "fixture: the refactor tests restamp one pattern with it",
	"easybo/internal/gp.GP.LMLGradient":              "oracle: TestFitHyperMatchesReference checks trainWork.gradient against it",
	"easybo/internal/surrogate.Exact.LeaveOneOut":    "ROADMAP names its consumer: GET /sessions/{id}/diagnostics",
	"easybo/internal/circuit.Circuit.SetDenseSolver": "reference: the dense MNA path every sparse/dense agreement test switches on",
	"easybo/internal/circuit.ACResult.V":             "observation point: the AC tests read one node at one frequency; BodeInto indexes X directly",
	"easybo/internal/testbench.ClassESim.SetDense":   "reference: the same switch, for the class-E testbench goldens",
	"easybo/internal/testbench.OpAmpSim.SetDense":    "reference: the same switch, for the op-amp testbench goldens",
	"easybo/internal/analysis.RunAnalyzer":           "observation point: the fixture tests run one analyzer on one package",
	"easybo/internal/serve/wal.MemFS.Sum":            "observation point: FuzzHTTP's oracle digests every byte of the store with it",
	"easybo/internal/serve.Server.Epoch":             "observation point: the fencing and handoff tests read a session's epoch",
	"easybo/internal/sched.NewGo":                    "observation point: a goroutine executor with default options",
	"easybo/internal/objective.Sphere":               "observation point: the convex objective the driver tests converge on",
	"easybo/internal/objective.WithCost":             "observation point: gives a test problem the cost model under test",
}

// reachAlways are method names the runtime or the standard library calls
// through an interface this module does not declare (fmt.Stringer, error,
// sort.Interface, container/heap, http.Handler, io.Writer, errors.Unwrap,
// rand.Source64): a method so named is reachable once its type is.
var reachAlways = []string{
	"String", "Error", "Len", "Less", "Swap", "Push", "Pop",
	"ServeHTTP", "Write", "Unwrap", "Int63", "Uint64", "Seed",
}

// reachDecl is one package-level declaration: a function, method, type,
// variable or constant, with the syntax whose identifiers are its out-edges.
type reachDecl struct {
	pos    token.Position
	node   ast.Node
	info   *types.Info
	isType bool
	root   bool
}

// objKey names a package-level object or method the same way from its
// defining package's source check and from another package's export data,
// which hold distinct types.Object values for it. Locals, fields, interface
// methods and objects outside the module yield "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "easybo") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok { // interface method
				return ""
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// collectReach turns loaded packages into declarations and the set of
// method names some module interface declares. rooted decides, per package
// and declaration, whether a declaration is a root.
func collectReach(pkgs []*Package, rooted func(p *Package, name string, recv bool) bool,
	decls map[string]*reachDecl, methods map[string][]string, ifaceNames map[string]bool) {
	for _, p := range pkgs {
		add := func(id *ast.Ident, node ast.Node, recv string, isType bool) {
			if id.Name == "_" {
				return
			}
			key := p.PkgPath + "." + id.Name
			if recv != "" {
				key = p.PkgPath + "." + recv + "." + id.Name
				methods[p.PkgPath+"."+recv] = append(methods[p.PkgPath+"."+recv], id.Name)
			}
			decls[key] = &reachDecl{
				pos: p.Fset.Position(id.Pos()), node: node, info: p.Info,
				isType: isType, root: rooted(p, id.Name, recv != ""),
			}
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					recv := ""
					if d.Recv != nil && len(d.Recv.List) == 1 {
						recv = recvName(d.Recv.List[0].Type)
					}
					add(d.Name, d, recv, false)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, "", true)
							if it, ok := p.Info.TypeOf(s.Name).Underlying().(*types.Interface); ok {
								for i := 0; i < it.NumMethods(); i++ {
									ifaceNames[it.Method(i).Name()] = true
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, s, "", false)
							}
						}
					}
				}
			}
		}
	}
}

// loadModules type-checks the non-test files of the root module and of the
// benchmark module, once for both audits.
func loadModules(t *testing.T) (root, bench []*Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules; skipped in -short")
	}
	modules, err := loadedModules()
	if err != nil {
		t.Fatal(err)
	}
	if root, bench = modules[0], modules[1]; len(root) < 20 || len(bench) < 1 {
		t.Fatalf("loaded %d + %d packages; the audit is not seeing the modules", len(root), len(bench))
	}
	return root, bench
}

var loadedModules = sync.OnceValues(func() (modules [2][]*Package, err error) {
	for i, dir := range []string{"../..", "../../benchmark"} {
		if modules[i], err = LoadPackages(dir, "./..."); err != nil {
			break
		}
	}
	return modules, err
})

func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// TestNoUnreachableDeclarations keeps the traffic audit true: every
// package-level declaration in a non-test file is reachable from a main
// (cmd/, examples/, the benchmark module), from an init, or from the
// exported API of the two public packages, easybo and easybo/circuits — or
// it is on reachKeep with its reason. A method is reached by a call or a
// method value, or, once its receiver type is, by bearing a name that an
// interface declared in the module (or reachAlways) could call it through.
func TestNoUnreachableDeclarations(t *testing.T) {
	root, bench := loadModules(t)

	decls := map[string]*reachDecl{}
	methods := map[string][]string{} // type key -> its method names
	ifaceNames := map[string]bool{}
	for _, n := range reachAlways {
		ifaceNames[n] = true
	}
	public := map[string]bool{"easybo": true, "easybo/circuits": true}
	collectReach(root, func(p *Package, name string, recv bool) bool {
		switch {
		case !recv && name == "init":
			return true
		case p.Types.Name() == "main":
			return !recv && name == "main"
		}
		return public[p.PkgPath] && ast.IsExported(name)
	}, decls, methods, ifaceNames)
	// The benchmark is a consumer: everything it declares is a root.
	collectReach(bench, func(*Package, string, bool) bool { return true }, decls, methods, ifaceNames)

	reached := map[string]bool{}
	var work []string
	reach := func(key string) {
		if d := decls[key]; d != nil && !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	walk := func() {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			d := decls[key]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					reach(objKey(d.info.Uses[id]))
				}
				return true
			})
			if d.isType {
				for _, m := range methods[key] {
					if ifaceNames[m] {
						reach(key + "." + m)
					}
				}
			}
		}
	}
	for key, d := range decls {
		if d.root {
			reach(key)
		}
	}
	walk()

	// What a kept declaration uses stays with it; the entry itself must be
	// one production does not reach, or it is stale.
	for key, reason := range reachKeep {
		switch {
		case decls[key] == nil:
			t.Errorf("reachKeep names %s, which is not declared", key)
		case reached[key]:
			t.Errorf("reachKeep names %s, which production code reaches: drop the entry", key)
		case reason == "":
			t.Errorf("reachKeep entry %s has no reason", key)
		}
	}
	if len(reachKeep) > 30 {
		t.Errorf("reachKeep has %d entries; the audit allows 30", len(reachKeep))
	}
	for key := range reachKeep {
		reach(key)
	}
	walk()

	var findings []string
	for key, d := range decls {
		if reached[key] || strings.HasPrefix(key, "easybo/benchmark") {
			continue
		}
		findings = append(findings, d.pos.String()+": "+key)
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("unreachable from any main, public API or the benchmark: %s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d unreachable declarations: delete them, or add each to reachKeep with a reason", len(findings))
	}
}

// optionKeep lists the exported option fields that no production code sets
// and that stay anyway: each is a lever a named test pulls. Keys are import
// path, struct and field. An entry production code does set, or that names
// nothing, fails the test.
var optionKeep = map[string]string{
	"easybo/internal/gp.FitOptions.NoiseLo":               "TestFitHyperMatchesReferenceOnHazards pins the noise against its lower bound",
	"easybo/internal/gp.FitOptions.NoiseHi":               "the same test, the upper bound",
	"easybo/internal/optimize.NelderMeadOptions.InitStep": "TestNelderMeadReproducesPinnedSequences: the nm_* pins record a small-simplex case",
	"easybo/internal/optimize.NelderMeadOptions.Tol":      "the same pins, a case that stops on the tolerance",
	"easybo/internal/optimize.MaximizeOptions.RefineEval": "TestMaximizeParallelDeterministicAcrossWorkers ends the budget inside a quantum",
	"easybo/internal/bo.Config.Features":                  "TestDriversRunOnEveryBackend runs the drivers on a 64-feature basis",
	"easybo/internal/bo.Config.AcqRefine":                 "TestAllAlgorithmsRunAndRespectBudget (fastCfg) refines one candidate to stay fast",
	"easybo/internal/bo.Config.DEPop":                     "TestDERunsAndIsSequential runs a population of 20 in 200 evaluations",
	"easybo/internal/cluster.Config.AttemptTimeout":       "the node_test clusters (TestAnyNodeRouting …) forward under a 2 s attempt timeout",
	"easybo/internal/cluster.Config.MaxAttempts":          "the same clusters, ten attempts",
	"easybo/internal/circuit.OPOptions.MaxIter":           "TestOPNoConvergenceError starves every continuation stage to one iteration",
	"easybo/internal/loadgen.Options.MaxRetries":          "TestShedEquivalence never gives up on a shed",
	"easybo/internal/loadgen.Options.Client":              "TestRunSmoke drives an httptest server through its client",
}

// fieldKey names the field a selection ends at by the struct that declares
// it (walking through embedded structs), "" for a field of an unnamed one.
func fieldKey(sel *types.Selection) string {
	t := sel.Recv()
	for i, k := range sel.Index() {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(k)
		if i == len(sel.Index())-1 {
			return structFieldKey(t, f.Name())
		}
		t = f.Type()
	}
	return ""
}

func structFieldKey(t types.Type, field string) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// TestNoUnsetOptionFields keeps the option audit true: every exported field
// of a struct named *Options or *Config is set somewhere outside _test.go
// files — a composite literal, an assignment, an address handed to a flag —
// or it is on optionKeep with the test that needs it. The two public packages
// are exempt, their fields being the module's API. Filling a default does
// not count (an assignment under an if that tests the same field), nor does
// copying the whole struct; a field with a json tag is a wire field, set by
// the decoder.
func TestNoUnsetOptionFields(t *testing.T) {
	root, bench := loadModules(t)

	type optionField struct {
		pos token.Position
		set bool
	}
	fields := map[string]*optionField{}
	for _, p := range root {
		if p.PkgPath == "easybo" || p.PkgPath == "easybo/circuits" {
			continue // the public API: its callers are outside the module
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						if fl.Tag != nil {
							tag, _ := reflect.StructTag(strings.Trim(fl.Tag.Value, "`")).Lookup("json")
							if tag != "" && tag != "-" {
								continue
							}
						}
						for _, id := range fl.Names {
							if id.IsExported() {
								fields[p.PkgPath+"."+ts.Name.Name+"."+id.Name] = &optionField{pos: p.Fset.Position(id.Pos())}
							}
						}
					}
				}
			}
		}
	}
	if len(fields) < 40 {
		t.Fatalf("found %d option fields; the audit is not seeing the structs", len(fields))
	}

	set := func(key string) {
		if f := fields[key]; f != nil {
			f.set = true
		}
	}
	for _, p := range append(root[:len(root):len(root)], bench...) {
		info := p.Info
		selKey := func(e ast.Expr) string {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return fieldKey(s)
				}
			}
			return ""
		}
		// mentions reports whether cond reads the field named key.
		mentions := func(cond ast.Expr, key string) (found bool) {
			ast.Inspect(cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && selKey(e) == key {
					found = true
				}
				return !found
			})
			return found
		}
		for _, f := range p.Files {
			var ifs []*ast.IfStmt // the if statements enclosing the node being visited
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					if _, ok := stack[len(stack)-1].(*ast.IfStmt); ok {
						ifs = ifs[:len(ifs)-1]
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.IfStmt:
					ifs = append(ifs, n)
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							set(structFieldKey(t, kv.Key.(*ast.Ident).Name))
						} else {
							set(structFieldKey(t, st.Field(i).Name()))
						}
					}
				case *ast.AssignStmt:
				lhs:
					for _, l := range n.Lhs {
						key := selKey(l)
						if key == "" {
							continue
						}
						for _, in := range ifs {
							if mentions(in.Cond, key) {
								continue lhs // filling a default
							}
						}
						set(key)
					}
				case *ast.IncDecStmt:
					set(selKey(n.X))
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(selKey(n.X))
					}
				}
				return true
			})
		}
	}

	for key, reason := range optionKeep {
		switch f := fields[key]; {
		case f == nil:
			t.Errorf("optionKeep names %s, which is not an option field", key)
		case f.set:
			t.Errorf("optionKeep names %s, which production code sets: drop the entry", key)
		case reason == "":
			t.Errorf("optionKeep entry %s has no reason", key)
		}
	}
	var findings []string
	for key, f := range fields {
		if !f.set && optionKeep[key] == "" {
			findings = append(findings, f.pos.String()+": "+key)
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("option field no production code sets: %s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d unset option fields: make each a constant, or add it to optionKeep naming the test that needs it", len(findings))
	}
}
