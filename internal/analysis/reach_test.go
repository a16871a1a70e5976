package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
	"easybo/internal/linalg.SolveLinear":             "oracle: the dense LU the sparse LU tests compare against",
	"easybo/internal/linalg.CMatrix.MulVec":          "oracle: TestCLUSolveRoundTrip forms b = A·x with it",
	"easybo/internal/linalg/sparse.Matrix.Zero":      "fixture: the refactor tests restamp one pattern with it",
	"easybo/internal/gp.GP.LMLGradient":              "oracle: TestFitHyperMatchesReference checks trainWork.gradient against it",
	"easybo/internal/gp.Model.LeaveOneOut":           "ROADMAP names its consumer: GET /sessions/{id}/diagnostics",
	"easybo/internal/circuit.Circuit.SetDenseSolver": "reference: the dense MNA path every sparse/dense agreement test switches on",
	"easybo/internal/testbench.ClassESim.SetDense":   "reference: the same switch, for the class-E testbench goldens",
	"easybo/internal/testbench.OpAmpSim.SetDense":    "reference: the same switch, for the op-amp testbench goldens",
	"easybo/internal/analysis.RunAnalyzer":           "observation point: the fixture tests run one analyzer on one package",
	"easybo/internal/serve.NewServer":                "observation point: a Server on the in-memory store",
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
	if testing.Short() {
		t.Skip("type-checks both modules; skipped in -short")
	}
	root, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := LoadPackages("../../benchmark", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(root) < 20 || len(bench) < 1 {
		t.Fatalf("loaded %d + %d packages; the audit is not seeing the modules", len(root), len(bench))
	}

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
