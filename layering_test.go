package centaur

// The layering guard: which internal packages may import which. The
// simulator kernel (internal/sim) stays below everything that names a
// protocol, a Permission List, an adversary or a trace format; the
// telemetry registry stays below the kernel; and the packages the
// protocols are built from never reach the kernel.

import (
	"errors"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// layerRules are the direct imports each listed internal package may
// make of other internal packages.
var layerRules = map[string][]string{
	"sim":       {"routing", "topology"},
	"telemetry": {"metrics"},
}

// belowKernel are the internal packages that must not reach sim, even
// transitively.
var belowKernel = []string{"pgraph", "wire", "bloom", "policy", "metrics", "routing", "topology"}

// TestLayering fails on an import of internal/ that breaks layerRules
// or belowKernel, in non-test code.
func TestLayering(t *testing.T) {
	imports, err := internalImports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append([]string{"sim", "telemetry"}, belowKernel...) {
		if _, ok := imports[p]; !ok {
			t.Errorf("internal/%s is gone: update the layering rules", p)
		}
	}
	for _, msg := range layeringViolations(imports) {
		t.Error(msg)
	}
}

// TestLayeringFixture runs the rules on a synthetic import set whose
// violations are known, so the guard is known to bite.
func TestLayeringFixture(t *testing.T) {
	imports := map[string][]string{
		"sim":       {"routing", "telemetry", "topology"},
		"telemetry": {"metrics", "sim"},
		"pgraph":    {"bloom", "telemetry"},
		"wire":      {"pgraph"},
		"bloom":     nil,
		"metrics":   nil,
		"routing":   nil,
		"topology":  {"routing"},
		"centaur":   {"sim", "pgraph"},
	}
	got := layeringViolations(imports)
	want := []string{
		"internal/pgraph reaches internal/sim: pgraph → telemetry → sim",
		"internal/sim imports internal/telemetry; it may import only routing, topology",
		"internal/telemetry imports internal/sim; it may import only metrics",
		"internal/wire reaches internal/sim: wire → pgraph → telemetry → sim",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	delete(imports, "telemetry")
	imports["sim"] = []string{"routing", "topology"}
	imports["pgraph"] = []string{"bloom"}
	if got := layeringViolations(imports); len(got) != 0 {
		t.Errorf("a clean import set is flagged: %q", got)
	}
}

// layeringViolations checks imports (internal package → the internal
// packages its non-test code imports, both relative to internal/)
// against layerRules and belowKernel, in sorted order.
func layeringViolations(imports map[string][]string) []string {
	var out []string
	for pkg, allowed := range layerRules {
		for _, imp := range imports[pkg] {
			if !contains(allowed, imp) {
				out = append(out, fmt.Sprintf("internal/%s imports internal/%s; it may import only %s",
					pkg, imp, strings.Join(allowed, ", ")))
			}
		}
	}
	for _, pkg := range belowKernel {
		if path := importPath(imports, pkg, "sim"); path != nil {
			out = append(out, fmt.Sprintf("internal/%s reaches internal/sim: %s", pkg, strings.Join(path, " → ")))
		}
	}
	sort.Strings(out)
	return out
}

// importPath returns a shortest import chain from one package to
// another, or nil when there is none.
func importPath(imports map[string][]string, from, to string) []string {
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p == to {
			var path []string
			for ; p != ""; p = prev[p] {
				path = append([]string{p}, path...)
			}
			return path
		}
		deps := append([]string(nil), imports[p]...)
		sort.Strings(deps)
		for _, d := range deps {
			if _, seen := prev[d]; !seen {
				prev[d] = p
				queue = append(queue, d)
			}
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// internalImports reads, for every package under the module's
// internal/, the internal packages its non-test files import.
func internalImports(moduleDir string) (map[string][]string, error) {
	mod, err := modulePath(moduleDir)
	if err != nil {
		return nil, err
	}
	prefix := mod + "/internal/"
	entries, err := os.ReadDir(filepath.Join(moduleDir, "internal"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		bp, err := build.ImportDir(filepath.Join(moduleDir, "internal", e.Name()), 0)
		if err != nil {
			if errors.As(err, new(*build.NoGoError)) {
				continue
			}
			return nil, err
		}
		deps := []string{}
		for _, imp := range bp.Imports {
			if rel, ok := strings.CutPrefix(imp, prefix); ok {
				deps = append(deps, rel)
			}
		}
		out[e.Name()] = deps
	}
	return out, nil
}
