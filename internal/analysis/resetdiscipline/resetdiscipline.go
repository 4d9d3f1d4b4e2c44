// Package resetdiscipline enforces the pool reuse contract: any type
// that offers a Reset, Renew or Reconfigure method (Flush counts when
// none exists) must reinitialize every field it mutates, or say out loud
// why not.
//
// The repo leans hard on object reuse — machinePool recycles whole
// simulated machines, walkers and TLBs are Reset between campaign
// sweeps, perf groups between measurement windows. A field that Reset
// misses is state leaking from one tenant, sweep, or measurement into
// the next: exactly the class of bug that corrupts results without
// failing any functional test (the counters are plausible, just wrong).
//
// A field passes when any of these holds:
//
//   - Reset coverage: a reset entry method assigns it, clears/copies
//     into it, calls a method on it (w.tlb.Flush()), or does so through
//     a helper the entry calls on the same receiver — computed with
//     dataflow.MethodCoverage and expanded transitively through self
//     calls.
//
//   - Constructor immutability: no method of the type ever mutates the
//     field, so construction-time state cannot go stale. (Mutation
//     tracking is per-method and alias-aware; package-level functions
//     that build the value don't count against it.)
//
//   - An //atlint:noreset <why> exemption on the field records an
//     intentional survivor — perf.Group.enabled survives Reset because
//     PERF_EVENT_IOC_RESET clears counts, not enablement.
//
// Exemptions that no longer bite (the field became covered or
// immutable, or the type lost its Reset) are themselves reported, so
// stale justifications cannot accumulate. sync.Mutex-family fields are
// exempt by construction: resetting a lock is never the fix.
package resetdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"atscale/internal/analysis"
	"atscale/internal/analysis/dataflow"
)

// Analyzer is the resetdiscipline check.
var Analyzer = &analysis.Analyzer{
	Name: "resetdiscipline",
	Doc: "Reset/Renew/Reconfigure methods must reinitialize every mutable field\n\n" +
		"Pooled objects (machines, walkers, TLBs, perf groups) are reused across\n" +
		"tenants and sweeps; a field Reset misses leaks state between runs and\n" +
		"skews counters silently. Every field a method mutates must be assigned\n" +
		"by Reset (directly or via helpers) or carry //atlint:noreset <why>.",
	Run: run,
}

// fieldDecl is one declared struct field.
type fieldDecl struct {
	name    string
	pos     token.Pos
	sync    bool             // sync.Mutex-family: never reset, never reported
	noreset *analysis.Marker // exemption, when present
}

// typeDecl aggregates a struct type with its methods.
type typeDecl struct {
	name    string
	fields  []fieldDecl
	methods map[string]*ast.FuncDecl
	recvs   map[string]types.Object // method name → receiver object
	order   []string                // method names in declaration order
}

func run(pass *analysis.Pass) error {
	decls := map[string]*typeDecl{}
	var typeOrder []string
	consumed := map[token.Pos]bool{}

	// Pass 1: struct declarations and their noreset markers.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				td := &typeDecl{name: ts.Name.Name,
					methods: map[string]*ast.FuncDecl{}, recvs: map[string]types.Object{}}
				for _, field := range st.Fields.List {
					var noreset *analysis.Marker
					for _, m := range analysis.CommentMarkers(field.Doc, field.Comment) {
						if m.Verb == "noreset" {
							mm := m
							noreset, consumed[m.Pos] = &mm, true
						}
					}
					for _, fd := range namedFields(pass, field) {
						fd.noreset = noreset
						td.fields = append(td.fields, fd)
					}
				}
				decls[td.name] = td
				typeOrder = append(typeOrder, td.name)
			}
		}
	}

	// Pass 2: attach methods.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			td, ok := decls[recvTypeName(fd.Recv.List[0].Type)]
			if !ok {
				continue
			}
			td.methods[fd.Name.Name] = fd
			td.recvs[fd.Name.Name] = recvObject(pass, fd)
			td.order = append(td.order, fd.Name.Name)
		}
	}

	for _, name := range typeOrder {
		checkType(pass, decls[name])
	}

	// Markers that attached to nothing checkable.
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, m := range analysis.FileMarkers(f, "noreset") {
			if !consumed[m.Pos] {
				pass.Reportf(m.Pos, "//atlint:noreset attaches to a struct field; nothing here for resetdiscipline to check")
			}
		}
	}
	return nil
}

func checkType(pass *analysis.Pass, td *typeDecl) {
	entries := entryMethods(td)
	if len(entries) == 0 {
		for _, fd := range td.fields {
			if fd.noreset != nil {
				pass.Reportf(fd.noreset.Pos, "unused //atlint:noreset on %s.%s: %s has no Reset/Renew/Reconfigure method", td.name, fd.name, td.name)
			}
		}
		return
	}
	entryLabel := strings.Join(entries, "/")

	// Reset coverage: entry bodies plus everything reachable through
	// same-receiver helper calls.
	covered := dataflow.Set{}
	visited := map[string]bool{}
	queue := append([]string(nil), entries...)
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		if visited[m] {
			continue
		}
		visited[m] = true
		fd, ok := td.methods[m]
		if !ok {
			continue
		}
		cov := dataflow.MethodCoverage(td.recvs[m], fd.Body, pass.TypesInfo)
		for f := range cov.Fields {
			covered[f] = true
		}
		for callee := range cov.SelfCalls {
			queue = append(queue, callee)
		}
	}

	// Mutation census over every method: only demonstrable writes
	// (Mutates, not Fields) count — w.phys.Read64() invokes a method on
	// the field but cannot make it stale. Constructors have no receiver
	// and therefore never count against a field either.
	mutatedBy := map[string]string{}
	for _, m := range td.order {
		cov := dataflow.MethodCoverage(td.recvs[m], td.methods[m].Body, pass.TypesInfo)
		for f := range cov.Mutates {
			if _, ok := mutatedBy[f]; !ok {
				mutatedBy[f] = m
			}
		}
	}

	for _, fd := range td.fields {
		if fd.sync {
			if fd.noreset != nil {
				pass.Reportf(fd.noreset.Pos, "unused //atlint:noreset on %s.%s: sync primitives are never reset", td.name, fd.name)
			}
			continue
		}
		by, mutated := mutatedBy[fd.name]
		switch {
		case covered[fd.name]:
			if fd.noreset != nil {
				pass.Reportf(fd.noreset.Pos, "unused //atlint:noreset on %s.%s: the field is already reinitialized by %s", td.name, fd.name, entryLabel)
			}
		case !mutated:
			if fd.noreset != nil {
				pass.Reportf(fd.noreset.Pos, "unused //atlint:noreset on %s.%s: no method mutates the field, so construction-time state cannot go stale", td.name, fd.name)
			}
		case fd.noreset != nil:
			// Justified survivor.
		default:
			pass.Reportf(fd.pos, "field %s.%s is mutated (by %s) but not reinitialized by %s; pooled state leaks across reuse — reset it or exempt it with //atlint:noreset <why>",
				td.name, fd.name, by, entryLabel)
		}
	}
}

// entryMethods picks the reset entry points: Reset, Renew and
// Reconfigure (any casing), falling back to Flush when the type has none
// of them.
func entryMethods(td *typeDecl) []string {
	var entries, flush []string
	for _, m := range td.order {
		switch {
		case strings.EqualFold(m, "Reset") || strings.EqualFold(m, "Renew") ||
			strings.EqualFold(m, "Reconfigure"):
			entries = append(entries, m)
		case strings.EqualFold(m, "Flush"):
			flush = append(flush, m)
		}
	}
	if len(entries) == 0 {
		return flush
	}
	return entries
}

// namedFields expands one ast.Field into per-name fieldDecls; an
// embedded field is named after its type.
func namedFields(pass *analysis.Pass, field *ast.Field) []fieldDecl {
	sync := isSyncType(fieldType(pass, field))
	if len(field.Names) == 0 {
		name := embeddedName(field.Type)
		if name == "" {
			return nil
		}
		return []fieldDecl{{name: name, pos: field.Pos(), sync: sync}}
	}
	out := make([]fieldDecl, 0, len(field.Names))
	for _, id := range field.Names {
		out = append(out, fieldDecl{name: id.Name, pos: id.Pos(), sync: sync})
	}
	return out
}

func fieldType(pass *analysis.Pass, field *ast.Field) types.Type {
	if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
		return tv.Type
	}
	return nil
}

// isSyncType reports whether t (or its pointee) is a sync package
// primitive that must not be reinitialized by Reset.
func isSyncType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync"
}

// embeddedName derives the field name of an embedded type: T, *T,
// pkg.T, *pkg.T.
func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr: // generic instantiation
		return embeddedName(e.X)
	}
	return ""
}

// recvTypeName unwraps a receiver type expression to its base name.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.ParenExpr:
		return recvTypeName(e.X)
	}
	return ""
}

// recvObject resolves the receiver variable object, nil for unnamed
// receivers.
func recvObject(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}
