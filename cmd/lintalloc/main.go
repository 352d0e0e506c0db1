// Command lintalloc is the repo's hot-path allocation linter
// (`make lint-alloc`): inside the packages that sit on the training and
// inference hot paths — internal/autodiff, internal/core (the scorer's
// forward loop and the trainer), internal/gnn, internal/infer — the
// allocating product conveniences tensor.MatMul, tensor.MatMulTransposeA
// and tensor.MatMulTransposeB are forbidden. Those packages run per step and
// per request; every product there must write into arena- or caller-owned
// storage via the Into/AddInto forms, or the substrate's zero-allocation
// guarantee (pinned by testing.AllocsPerRun regression tests) silently
// erodes. Cold paths and tests may use the convenience forms freely.
//
// Usage:
//
//	go run ./cmd/lintalloc [dir]
//
// dir defaults to ".". Test files are exempt. Exit status 1 when any
// violation is found, 2 on walk/parse failure.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// restrictedDirs are the hot-path packages (relative to the repo root) in
// which allocating product calls fail the build.
var restrictedDirs = []string{
	filepath.Join("internal", "autodiff"),
	filepath.Join("internal", "core"),
	filepath.Join("internal", "gnn"),
	filepath.Join("internal", "infer"),
}

// forbidden are the allocating conveniences; each names its required
// replacement in the diagnostic.
var forbidden = map[string]string{
	"MatMul":           "MatMulInto/MatMulAddInto",
	"MatMulTransposeA": "MatMulTransposeAInto/MatMulTransposeAAddInto",
	"MatMulTransposeB": "MatMulTransposeBInto/MatMulTransposeBAddInto",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	os.Exit(run(root, os.Stderr))
}

func run(root string, stderr io.Writer) int {
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range restrictedDirs {
		base := filepath.Join(root, dir)
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) && path == base {
					return filepath.SkipDir // package may not exist in a partial tree
				}
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || name == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("parse %s: %w", path, err)
			}
			violations = append(violations, checkFile(fset, file)...)
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "lintalloc:", err)
			return 2
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, v)
		}
		fmt.Fprintf(stderr, "lintalloc: %d allocating product call(s) on the hot path\n", len(violations))
		return 1
	}
	return 0
}

// checkFile reports every call of the form tensor.<forbidden>(...) in file.
// The check is name-based (the tensor package is always imported under its
// own name in this repo), matching lintspans' approach: parsing without type
// information keeps the linter dependency-free and fast.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "tensor" {
			return true
		}
		if repl, bad := forbidden[sel.Sel.Name]; bad {
			pos := fset.Position(call.Pos())
			out = append(out, fmt.Sprintf("%s: tensor.%s allocates its result; use %s on the hot path",
				pos, sel.Sel.Name, repl))
		}
		return true
	})
	return out
}
