// Package gcdiag is the compiler-diagnostics bridge: it runs
// `go build -gcflags=-m=2` and parses the escape-analysis and inliner
// output into a queryable report. hotalloc uses it to prove that
// //atlint:hotpath functions allocate nothing in steady state and that
// //atlint:inline functions stay under the inliner budget — the
// compile-time version of the AllocsPerRun==0 tests and of reading the
// inliner's verdict on the cache probe by hand.
//
// Two facts about the -m=2 stream shape everything here:
//
//   - Escapes are attributed at every position the allocation surfaces,
//     including call sites where a panicking helper was inlined. A
//     helper's `panic("msg: " + x.String())` therefore shows up inside
//     the caller's body span with the caller's position.
//
//   - Each `… escapes to heap:` record is followed by indented flow
//     detail lines, and an escape whose only sink is a panic argument
//     says so explicitly: `from panic(…) (call parameter)`. Grouping
//     records by (file, line, col, expression) and scanning the group's
//     details for a panic sink classifies crash-path escapes without
//     any AST cross-referencing — which is what lets hotalloc keep
//     bounds-check panics in the hot path without declaring them
//     steady-state allocations.
//
// The diagnostics format is a compiler implementation detail, so the
// bridge is pinned to one toolchain line (Toolchain); on any other
// toolchain callers should skip the bridge with a warning rather than
// trust a parse of an unknown dialect.
package gcdiag

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Toolchain is the Go release line whose -m=2 dialect this parser was
// written and tested against. Patch releases do not change the
// diagnostics format, so any go1.24.x matches.
const Toolchain = "go1.24"

// Escape is one heap-allocation diagnostic: either an `escapes to
// heap` record or a `moved to heap` record.
type Escape struct {
	File string // absolute path
	Line int
	Col  int
	// What is the compiler's description of the allocated value, e.g.
	// `make([]uint64, lines)` or `moved to heap: x`.
	What string
	// PanicOnly marks escapes whose flow detail names a panic argument
	// as the sink: the allocation happens only on a crash path.
	PanicOnly bool
}

// Inline is one inliner verdict for a function declaration.
type Inline struct {
	File string
	Line int
	Col  int
	Name string // as the compiler prints it, e.g. (*Cache).Lookup
	// CanInline is true for `can inline` records; Cost is the inliner
	// cost. For `cannot inline` records Cost is -1 unless the reason
	// named one, and Reason holds the compiler's explanation.
	CanInline bool
	Cost      int
	Reason    string
}

// Report is the parsed diagnostics of one build.
type Report struct {
	Escapes []Escape
	Inlines []Inline

	escByFile map[string][]int
	inlByFile map[string][]int
}

// EscapesIn returns the escapes in file attributed to lines in
// [fromLine, toLine].
func (r *Report) EscapesIn(file string, fromLine, toLine int) []Escape {
	var out []Escape
	for _, i := range r.escByFile[file] {
		e := r.Escapes[i]
		if e.Line >= fromLine && e.Line <= toLine {
			out = append(out, e)
		}
	}
	return out
}

// InlineAt returns the inliner verdict for the function declared at
// (file, line), if the compiler emitted one.
func (r *Report) InlineAt(file string, line int) (Inline, bool) {
	for _, i := range r.inlByFile[file] {
		in := r.Inlines[i]
		if in.Line == line {
			return in, true
		}
	}
	return Inline{}, false
}

// ToolchainVersion returns `go env GOVERSION` for the go on PATH.
func ToolchainVersion() (string, error) {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// ToolchainMatches reports whether version belongs to the pinned
// release line: the line itself or any of its patch releases.
func ToolchainMatches(version string) bool {
	return version == Toolchain || strings.HasPrefix(version, Toolchain+".")
}

// Collect builds the given patterns in dir with -gcflags=-m=2 and
// parses the diagnostics. The build cache replays diagnostics, so a
// warm second run costs no compilation.
func Collect(dir string, patterns []string) (*Report, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, tail(stderr.String(), 2048))
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	return Parse(abs, stderr.String()), nil
}

// Parse parses raw -m=2 output, resolving relative paths against dir.
// It is separated from Collect so canned transcripts can be tested
// without a toolchain.
func Parse(dir, output string) *Report {
	r := &Report{
		escByFile: make(map[string][]int),
		inlByFile: make(map[string][]int),
	}
	// Group key of the escape record currently collecting detail
	// lines, so a panic sink in the detail marks every record of the
	// group.
	type escKey struct {
		file      string
		line, col int
		what      string
	}
	groups := make(map[escKey][]int)
	var openKey escKey
	var haveOpen bool

	for _, raw := range strings.Split(output, "\n") {
		file, line, col, msg, ok := splitPos(raw)
		if !ok || strings.HasPrefix(file, "<autogenerated>") {
			haveOpen = false
			continue
		}
		if strings.HasPrefix(msg, " ") || strings.HasPrefix(msg, "\t") {
			// Indented flow detail of the open escape record.
			if haveOpen && strings.Contains(msg, "from panic(") {
				for _, i := range groups[openKey] {
					r.Escapes[i].PanicOnly = true
				}
			}
			continue
		}
		haveOpen = false
		file = resolve(dir, file)
		switch {
		case strings.HasPrefix(msg, "moved to heap: "):
			r.Escapes = append(r.Escapes, Escape{File: file, Line: line, Col: col, What: msg})
			r.escByFile[file] = append(r.escByFile[file], len(r.Escapes)-1)

		case strings.HasSuffix(msg, " escapes to heap") || strings.HasSuffix(msg, " escapes to heap:"):
			what := strings.TrimSuffix(strings.TrimSuffix(msg, ":"), " escapes to heap")
			key := escKey{file: file, line: line, col: col, what: what}
			// The compiler prints one record per sink for the same
			// allocation; keep a single Escape per group so late panic
			// detail still marks it.
			if _, seen := groups[key]; !seen {
				r.Escapes = append(r.Escapes, Escape{File: file, Line: line, Col: col, What: what})
				r.escByFile[file] = append(r.escByFile[file], len(r.Escapes)-1)
				groups[key] = []int{len(r.Escapes) - 1}
			}
			openKey, haveOpen = key, true

		case strings.HasPrefix(msg, "can inline "):
			rest := strings.TrimPrefix(msg, "can inline ")
			name, costPart, found := strings.Cut(rest, " with cost ")
			if !found {
				continue
			}
			costStr, _, _ := strings.Cut(costPart, " ")
			cost, err := strconv.Atoi(costStr)
			if err != nil {
				continue
			}
			r.Inlines = append(r.Inlines, Inline{File: file, Line: line, Col: col,
				Name: name, CanInline: true, Cost: cost})
			r.inlByFile[file] = append(r.inlByFile[file], len(r.Inlines)-1)

		case strings.HasPrefix(msg, "cannot inline "):
			rest := strings.TrimPrefix(msg, "cannot inline ")
			name, reason, found := strings.Cut(rest, ": ")
			if !found {
				name, reason = rest, ""
			}
			r.Inlines = append(r.Inlines, Inline{File: file, Line: line, Col: col,
				Name: name, CanInline: false, Cost: costIn(reason), Reason: reason})
			r.inlByFile[file] = append(r.inlByFile[file], len(r.Inlines)-1)
		}
	}
	return r
}

// splitPos splits `file:line:col: message`, keeping the message's
// leading whitespace intact (it distinguishes detail lines).
func splitPos(s string) (file string, line, col int, msg string, ok bool) {
	// Find ":<digits>:<digits>: " scanning from the left; file names
	// contain no colons in this repo.
	i := strings.Index(s, ".go:")
	if i < 0 {
		// <autogenerated>:1: lines and non-diagnostic output.
		if strings.HasPrefix(s, "<autogenerated>") {
			return "<autogenerated>", 0, 0, "", true
		}
		return "", 0, 0, "", false
	}
	file = s[:i+3]
	rest := s[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 2 {
		return "", 0, 0, "", false
	}
	line, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, 0, "", false
	}
	if len(parts) == 3 {
		if c, err := strconv.Atoi(parts[1]); err == nil {
			msg = strings.TrimPrefix(parts[2], " ")
			// Detail lines keep their indentation: TrimPrefix removed
			// only the separator space after the colon.
			return file, line, c, msg, true
		}
	}
	// file:line: message (no column).
	msg = strings.TrimPrefix(strings.Join(parts[1:], ":"), " ")
	return file, line, 0, msg, true
}

// costIn extracts a cost from reasons like `function too complex: cost
// 196 exceeds budget 80`; -1 when absent.
func costIn(reason string) int {
	_, after, found := strings.Cut(reason, "cost ")
	if !found {
		return -1
	}
	numStr, _, _ := strings.Cut(after, " ")
	n, err := strconv.Atoi(numStr)
	if err != nil {
		return -1
	}
	return n
}

func resolve(dir, file string) string {
	if filepath.IsAbs(file) {
		return filepath.Clean(file)
	}
	return filepath.Join(dir, file)
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
