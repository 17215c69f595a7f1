// Command doccheck fails when an exported identifier lacks a doc comment,
// or when a user-facing document outgrows its ceiling or names a package
// path that is not there.
//
// It walks the Go packages under the directories given as arguments
// (default: cmd/, internal/, kamino/, and tools/), parses every non-test
// file with comments, and reports exported declarations — functions,
// methods on exported types, types, constants, and variables — that have
// no doc comment, plus packages with no package comment. It then reads
// the user-facing documents at the repository root (the current
// directory) and holds each to two rules:
//
//   - its size in bytes is at most its ceiling (the documents table
//     below). Lowering a ceiling is routine; raising one needs a sentence
//     in CHANGES.md saying why;
//   - every `./P` that a `go run`, `go build`, `go test` or `go vet`
//     command on one of its lines names is a directory of Go files.
//     Patterns with `...` are skipped.
//
// The exit status is 1 when anything was reported, so `make doccheck` can
// gate CI.
//
// Command packages (package main, i.e. everything under cmd/ and
// tools/) are held to the package-comment rule only: a command's doc
// comment is its man page, but its exported identifiers are not an API
// surface anyone imports.
//
// The rules mirror what golint historically checked, restricted to the
// pieces that matter for godoc output:
//
//   - every package needs a package comment (on any one file);
//   - every exported func/method needs a doc comment (methods only when
//     the receiver's base type is itself exported);
//   - every exported type, const, and var needs a doc comment on the
//     declaration, the spec, or a trailing line comment (grouped const
//     blocks with one leading comment are fine);
//   - struct fields and interface methods are NOT required to carry
//     comments (encouraged, not enforced).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// documents are the user-facing documents and the most bytes each may
// hold: the sizes they had when the ceilings were set.
var documents = []struct {
	name    string
	ceiling int
}{
	{"README.md", 15443},
	{"ARCHITECTURE.md", 22834},
	{"DESIGN.md", 69083},
	{"OPERATIONS.md", 18514},
	{"EXPERIMENTS.md", 38226},
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"cmd", "internal", "kamino", "tools"}
	}
	violations, err := check(".", roots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// check runs every rule over the repository at repo, walking the Go
// packages under the given roots (relative to repo), and returns the
// violations sorted.
func check(repo string, roots []string) ([]string, error) {
	var violations []string
	for _, root := range roots {
		dirs, err := goDirs(filepath.Join(repo, root))
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			vs, err := checkDir(dir)
			if err != nil {
				return nil, err
			}
			violations = append(violations, vs...)
		}
	}
	for _, d := range documents {
		vs, err := checkDocument(repo, d.name, d.ceiling)
		if err != nil {
			return nil, err
		}
		violations = append(violations, vs...)
	}
	sort.Strings(violations)
	return violations, nil
}

// goCommand matches a go command that names packages, up to the end of
// its code span, a comment or a shell separator.
var goCommand = regexp.MustCompile("\\bgo (?:run|build|test|vet)\\b[^`#&|;]*")

// checkDocument holds the document name under repo to its ceiling and
// requires every ./P a go command on one of its lines names, "..."
// patterns aside, to be a directory of Go files.
func checkDocument(repo, name string, ceiling int) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(repo, name))
	if err != nil {
		return nil, err
	}
	var out []string
	if len(data) > ceiling {
		out = append(out, fmt.Sprintf("%s: %d bytes, over its ceiling of %d", name, len(data), ceiling))
	}
	for i, line := range strings.Split(string(data), "\n") {
		for _, cmd := range goCommand.FindAllString(line, -1) {
			args := strings.Fields(cmd)
			for _, p := range args[2:] {
				p = strings.TrimRight(p, ",)")
				if !strings.HasPrefix(p, "./") || strings.Contains(p, "...") {
					continue
				}
				if files, _ := filepath.Glob(filepath.Join(repo, p, "*.go")); len(files) == 0 {
					out = append(out, fmt.Sprintf("%s:%d: go %s names %s, which is not a directory of Go files", name, i+1, args[1], p))
				}
			}
		}
	}
	return out, nil
}

// goDirs returns every directory under root that contains at least one
// non-test .go file.
func goDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// checkDir parses one package directory and returns its violations.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		hasPkgDoc := false
		// Deterministic file order.
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			f := pkg.Files[name]
			if f.Doc != nil {
				hasPkgDoc = true
			}
			if pkg.Name != "main" { // commands: package comment only
				out = append(out, checkFile(fset, f)...)
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return out, nil
}

// checkFile reports exported declarations in f that lack doc comments.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				base := receiverBase(d.Recv)
				if base == "" || !ast.IsExported(base) {
					continue // method on an unexported type
				}
				report(d.Pos(), "exported method %s.%s has no doc comment", base, d.Name.Name)
			} else {
				report(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil && ts.Comment == nil {
						report(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A doc comment on the grouped declaration covers every
				// spec in it; otherwise each exported spec needs its own
				// leading or trailing comment.
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, name := range vs.Names {
						if name.IsExported() {
							report(name.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), name.Name)
							break
						}
					}
				}
			}
		}
	}
	return out
}

// receiverBase returns the receiver's base type name ("" if unnameable).
func receiverBase(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
