// Command reachable lists the functions of a Go module that no binary
// links, and fails when one of them is not on its allowlist.
//
// It builds every main package of the given module directories with
// inlining off in the first module's packages, reads the text symbols of
// each binary with `go tool nm`, and compares them with every function
// and method that `go/parser` finds in the first module's non-test
// files. The linker drops code that nothing reaches, so a declared
// function with no symbol is reached only by tests, or by nothing.
//
// The linker keeps every exported method of a type that reaches an
// interface once a binary calls reflect's Method or MethodByName (as
// text/template and html/template do), so such a method would count as
// linked even when no code calls it. The scan therefore fails on any
// binary that links one of them.
//
// Usage, from this directory:
//
//	go run . MODULE_DIR [EXTRA_MODULE_DIR...]
//
// allow.txt in the working directory lists one name and its reason a
// line. A name is exact, such as shogun/internal/mine.BruteForceCount or
// shogun/internal/mine.(*Miner).SetHybridKernels, or ends in * and is a
// path.Match glob, such as shogun/internal/chaos.*.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

type pkg struct {
	ImportPath, Dir, Name string
	GoFiles               []string
}

// fn is one declared function. Names are the symbol names that count as
// linking it: a value method is linked as T.M or through its pointer
// wrapper (*T).M.
type fn struct {
	names []string
	pos   string
	lines int
}

// reflectLookup lists reflect's method lookups by symbol.
var reflectLookup = map[string]bool{
	"reflect.Value.Method":          true,
	"reflect.Value.MethodByName":    true,
	"reflect.(*rtype).Method":       true,
	"reflect.(*rtype).MethodByName": true,
}

type rule struct {
	pattern    string
	glob, used bool
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: reachable MODULE_DIR [EXTRA_MODULE_DIR...]")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "reachable:", err)
		os.Exit(1)
	}
}

func run(root string, extra []string) error {
	rules, err := readAllow("allow.txt")
	if err != nil {
		return err
	}
	modPath, err := goCmd(root, "list", "-m")
	if err != nil {
		return err
	}
	modPath = strings.TrimSpace(modPath)
	tmp, err := os.MkdirTemp("", "reachable")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var decls []fn
	var bad []string
	linked := map[string]bool{}
	for i, dir := range append([]string{root}, extra...) {
		pkgs, err := listPackages(dir)
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			if i == 0 {
				fns, err := parseFuncs(p)
				if err != nil {
					return err
				}
				decls = append(decls, fns...)
			}
			if p.Name != "main" {
				continue
			}
			bin := filepath.Join(tmp, strings.ReplaceAll(p.ImportPath, "/", "_"))
			if _, err := goCmd(dir, "build", "-gcflags="+modPath+"/...=-l", "-o", bin, p.ImportPath); err != nil {
				return err
			}
			syms, err := goCmd(dir, "tool", "nm", bin)
			if err != nil {
				return err
			}
			if sym := linkSymbols(syms, p.ImportPath, linked); sym != "" {
				bad = append(bad, fmt.Sprintf("%s links %s, so the linker keeps every exported method and the scan cannot see them", p.ImportPath, sym))
			}
		}
	}

	unreached, lines := 0, 0
	for _, d := range decls {
		if reached(d, linked) {
			continue
		}
		unreached++
		lines += d.lines
		if r := match(rules, d.names[0]); r != nil {
			r.used = true
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s (%d lines) is linked into no binary", d.pos, d.names[0], d.lines))
	}
	for _, r := range rules {
		if !r.used && !r.glob {
			bad = append(bad, fmt.Sprintf("allow.txt: %s matches no unreachable function; drop it", r.pattern))
		}
	}
	fmt.Printf("reachable: %d functions, %d linked into no binary (%d body lines), %d not allowlisted\n",
		len(decls), unreached, lines, len(bad))
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%d problems:\n%s", len(bad), strings.Join(bad, "\n"))
	}
	return nil
}

// linkSymbols marks the functions whose text symbols the `go tool nm`
// output syms lists as linked, and returns the first of reflect's method
// lookups it lists, or "".
func linkSymbols(syms, mainPath string, linked map[string]bool) string {
	lookup := ""
	for _, line := range strings.Split(syms, "\n") {
		f := strings.SplitN(strings.TrimLeft(line, " "), " ", 3)
		if len(f) != 3 || f[1] != "T" && f[1] != "t" {
			continue
		}
		if reflectLookup[f[2]] && lookup == "" {
			lookup = f[2]
		}
		linked[symbolKey(f[2], mainPath)] = true
	}
	return lookup
}

func reached(d fn, linked map[string]bool) bool {
	for _, n := range d.names {
		if linked[n] {
			return true
		}
	}
	return false
}

func match(rules []*rule, name string) *rule {
	for _, r := range rules {
		if ok, _ := path.Match(r.pattern, name); r.pattern == name || ok && r.glob {
			return r
		}
	}
	return nil
}

// readAllow reads "name reason" lines; blank lines and lines that start
// with # are skipped, and every name needs a reason.
func readAllow(file string) ([]*rule, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rules []*rule
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pat, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, n, pat)
		}
		rules = append(rules, &rule{pattern: pat, glob: strings.HasSuffix(pat, "*")})
	}
	return rules, sc.Err()
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return string(out), nil
}

func listPackages(dir string) ([]pkg, error) {
	out, err := goCmd(dir, "list", "-json", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// parseFuncs lists the functions and methods declared in p's non-test
// files under the names symbolKey gives their symbols.
func parseFuncs(p pkg) ([]fn, error) {
	fset := token.NewFileSet()
	var fns []fn
	for _, name := range p.GoFiles {
		file := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil || d.Name.Name == "_" {
				continue
			}
			prefix := p.ImportPath + "."
			var names []string
			if d.Recv == nil {
				names = []string{prefix + d.Name.Name}
			} else {
				typ, ptr := recvType(d.Recv.List[0].Type)
				names = []string{prefix + "(*" + typ + ")." + d.Name.Name}
				if !ptr {
					names = []string{prefix + typ + "." + d.Name.Name, names[0]}
				}
			}
			fns = append(fns, fn{
				names: names,
				pos:   fmt.Sprintf("%s:%d", file, fset.Position(d.Pos()).Line),
				lines: fset.Position(d.Body.Rbrace).Line - fset.Position(d.Body.Lbrace).Line + 1,
			})
		}
	}
	return fns, nil
}

// recvType names a receiver's type without its type parameters and says
// whether the receiver is a pointer.
func recvType(e ast.Expr) (name string, ptr bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

// symbolKey maps a linker symbol to the name of the declared function it
// belongs to: type arguments are stripped ((*Cache[go.shape.int64]).Get
// is (*Cache).Get), a closure or go/defer wrapper (F.func1.2,
// F.gowrap1) and a method value (M-fm) belong to their enclosing
// function, and a numbered init (init.0) is init. Symbols of package
// main are renamed to mainPath, the import path of the binary's main
// package.
func symbolKey(sym, mainPath string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.TrimSuffix(b.String(), "-fm")
	if strings.HasPrefix(sym, "main.") {
		sym = mainPath + sym[len("main"):]
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	dot := strings.IndexByte(sym[slash:], '.')
	if dot < 0 {
		return sym
	}
	pkgPath, parts := sym[:slash+dot], strings.Split(sym[slash+dot+1:], ".")
	for i := 1; i < len(parts); i++ {
		if isClosure(parts[i]) {
			parts = parts[:i]
			break
		}
	}
	return pkgPath + "." + strings.Join(parts, ".")
}

func isClosure(part string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap", ""} {
		if rest, ok := strings.CutPrefix(part, p); ok && rest != "" && strings.Trim(rest, "0123456789") == "" {
			return true
		}
	}
	return false
}
