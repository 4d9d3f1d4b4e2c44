package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// A directive is one //atlint: control comment.
//
// Suppressions (consumed by the framework):
//
//	//atlint:ordered <why>          suppress detrange at this site
//	//atlint:allow <analyzer> <why> suppress the named analyzer here
//
// Markers (consumed by the analyzer that owns the verb):
//
//	//atlint:deterministic           package is in detrange's scope
//	//atlint:frontend <why>          CLI package; nondet's wall-clock ban lifted
//	//atlint:hotpath [why]           function must be allocation-free (hotalloc)
//	//atlint:inline [why]            function must stay under the inliner budget (hotalloc)
//	//atlint:guardedby <mu> [why]    field may only be touched with <mu> held (lockguard)
//	//atlint:locked <mu> <why>       function runs with <mu> already held (lockguard)
//	//atlint:noreset <why>           field intentionally survives Reset (resetdiscipline)
//
// Several directives may share one comment by chaining them:
// `//atlint:hotpath //atlint:inline the cache probe's inline contract`.
//
// Suppression directives cover diagnostics on their own line and the
// line immediately below, so both trailing-comment and
// comment-above-the-statement styles work. A suppression that matches
// no diagnostic in a run that includes its analyzer is itself reported:
// stale justifications are how invariant rot starts. Markers have no
// framework-side use tracking — the owning analyzer reports misplaced
// or unused markers with its own domain knowledge (an //atlint:noreset
// naming no field, a guardedby target that is not a mutex).
type directive struct {
	pos      token.Pos
	analyzer string // analyzer it addresses; "" for markers
	verb     string
	reason   string
	used     bool
	marker   bool   // analyzer-owned; exempt from unused reporting here
	bad      string // non-empty if malformed: the error message
}

// DirectivePrefix is the comment prefix all control comments share.
const DirectivePrefix = "atlint:"

// rawDirective is one directive body cut out of a comment, before verb
// parsing.
type rawDirective struct {
	pos  token.Pos
	body string
}

// directiveBodies extracts the directive bodies of a comment. A
// comment participates only if it begins with the atlint prefix;
// further directives may be chained inside it with `//atlint:`.
func directiveBodies(c *ast.Comment) []rawDirective {
	trimmed := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(trimmed, DirectivePrefix) {
		return nil
	}
	const chain = "//" + DirectivePrefix
	var out []rawDirective
	off := strings.Index(c.Text, DirectivePrefix)
	for off >= 0 {
		rest := c.Text[off+len(DirectivePrefix):]
		body := rest
		end := strings.Index(rest, chain)
		if end >= 0 {
			body = rest[:end]
		}
		out = append(out, rawDirective{
			pos:  c.Pos() + token.Pos(off),
			body: strings.TrimSpace(body),
		})
		if end < 0 {
			break
		}
		off += len(DirectivePrefix) + end + len("//")
	}
	return out
}

// parseDirectives extracts every atlint directive from the files,
// keyed by file name and line.
func parseDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]*directive {
	out := make(map[string]map[int][]*directive)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, rd := range directiveBodies(c) {
					d := parseDirective(rd.pos, rd.body)
					pos := fset.Position(rd.pos)
					byLine := out[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]*directive)
						out[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], d)
				}
			}
		}
	}
	return out
}

func parseDirective(pos token.Pos, body string) *directive {
	verb, rest, _ := strings.Cut(body, " ")
	d := &directive{pos: pos, verb: verb, reason: strings.TrimSpace(rest)}
	switch verb {
	case "ordered":
		d.analyzer = "detrange"
		if d.reason == "" {
			d.bad = "//atlint:ordered needs a justification (why is this iteration order-safe?)"
		}
	case "allow":
		name, why, _ := strings.Cut(d.reason, " ")
		d.analyzer, d.reason = name, strings.TrimSpace(why)
		if d.analyzer == "" {
			d.bad = "//atlint:allow needs an analyzer name and a justification"
		} else if d.reason == "" {
			d.bad = "//atlint:allow " + d.analyzer + " needs a justification"
		}
	case "deterministic":
		// Package marker consumed by detrange; nothing to validate.
		d.marker = true
	case "hotpath", "inline":
		// Function markers consumed by hotalloc; a reason is welcome
		// but optional — the verb is the contract.
		d.marker = true
	case "guardedby":
		d.marker = true
		if d.reason == "" {
			d.bad = "//atlint:guardedby needs the guarding mutex field name"
		}
	case "locked":
		d.marker = true
		guard, why, _ := strings.Cut(d.reason, " ")
		if guard == "" {
			d.bad = "//atlint:locked needs the held guard name and a justification"
		} else if strings.TrimSpace(why) == "" {
			d.bad = "//atlint:locked " + guard + " needs a justification (who holds the lock for this callee?)"
		}
	case "noreset":
		d.marker = true
		if d.reason == "" {
			d.bad = "//atlint:noreset needs a justification (why may this field survive Reset?)"
		}
	case "frontend":
		d.marker = true
		if d.reason == "" {
			d.bad = "//atlint:frontend needs a justification (why may this package read the wall clock?)"
		}
	default:
		d.bad = "unknown directive //atlint:" + verb
	}
	return d
}

// suppressor answers "is this diagnostic covered by a directive?" and
// tracks which directives fired.
type suppressor struct {
	fset       *token.FileSet
	directives map[string]map[int][]*directive
}

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	return &suppressor{fset: fset, directives: parseDirectives(fset, files)}
}

// suppresses reports whether a diagnostic from the named analyzer at
// pos is covered, marking the covering directive used. Markers never
// suppress: their semantics belong to the owning analyzer.
func (s *suppressor) suppresses(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	byLine := s.directives[p.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range byLine[line] {
			if d.bad == "" && !d.marker && d.analyzer == analyzer {
				d.used = true
				return true
			}
		}
	}
	return false
}

// leftovers returns diagnostics for malformed directives and for unused
// suppressions addressed to an analyzer in the run set.
func (s *suppressor) leftovers(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, byLine := range s.directives {
		for _, ds := range byLine {
			for _, d := range ds {
				switch {
				case d.bad != "":
					out = append(out, Diagnostic{Pos: d.pos, Message: d.bad, Analyzer: "atlint"})
				case d.marker || d.used:
					// Markers are the owning analyzer's business;
					// fired suppressions are fine.
				case ran[d.analyzer]:
					out = append(out, Diagnostic{
						Pos: d.pos,
						Message: "unused //atlint:" + d.verb + " directive for " + d.analyzer +
							" (nothing suppressed; delete it or fix the justification placement)",
						Analyzer: "atlint",
					})
				}
			}
		}
	}
	return out
}

// Marker is one //atlint: directive seen from an analyzer's side: the
// verb and its raw argument string. Validation of the arguments is the
// owning analyzer's job; the framework only rejects unknown verbs.
type Marker struct {
	Pos  token.Pos
	Verb string
	Args string
}

// CommentMarkers returns the directives found in the given comment
// groups — typically a declaration's Doc and line Comment — as markers.
// Nil groups are allowed.
func CommentMarkers(groups ...*ast.CommentGroup) []Marker {
	var out []Marker
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			for _, rd := range directiveBodies(c) {
				verb, args, _ := strings.Cut(rd.body, " ")
				out = append(out, Marker{Pos: rd.pos, Verb: verb, Args: strings.TrimSpace(args)})
			}
		}
	}
	return out
}

// FileMarkers returns every directive in f whose verb is one of verbs,
// in source order. Analyzers use it to find markers that failed to
// attach to a declaration they understand (a //atlint:hotpath on a
// type, a //atlint:guardedby on a method) and report them.
func FileMarkers(f *ast.File, verbs ...string) []Marker {
	want := make(map[string]bool, len(verbs))
	for _, v := range verbs {
		want[v] = true
	}
	var out []Marker
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, rd := range directiveBodies(c) {
				verb, args, _ := strings.Cut(rd.body, " ")
				if want[verb] {
					out = append(out, Marker{Pos: rd.pos, Verb: verb, Args: strings.TrimSpace(args)})
				}
			}
		}
	}
	return out
}

// HasPackageMarker reports whether any file carries a well-formed
// //atlint:<verb> directive. Package-scoped markers (deterministic,
// frontend) use it.
func HasPackageMarker(files []*ast.File, verb string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, rd := range directiveBodies(c) {
					v, _, _ := strings.Cut(rd.body, " ")
					if v == verb {
						return true
					}
				}
			}
		}
	}
	return false
}

// HasDeterministicMarker reports whether any file carries a
// package-level //atlint:deterministic marker. detrange uses it so new
// packages can opt into the deterministic set without editing the
// analyzer's built-in list.
func HasDeterministicMarker(fset *token.FileSet, files []*ast.File) bool {
	return HasPackageMarker(files, "deterministic")
}
