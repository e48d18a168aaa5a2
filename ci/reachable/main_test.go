package main

import "testing"

func TestSymbolKey(t *testing.T) {
	for sym, want := range map[string]string{
		"shogun/internal/graph.New":                                          "shogun/internal/graph.New",
		"shogun/internal/graph.(*Graph).Neighbors":                           "shogun/internal/graph.(*Graph).Neighbors",
		"shogun/internal/serve.(*Cache[go.shape.int64,go.shape.*uint8]).Get": "shogun/internal/serve.(*Cache).Get",
		"shogun/internal/serve.(*Cache[go.shape.[]int32]).Get.func1":         "shogun/internal/serve.(*Cache).Get",
		"shogun/internal/serve.(*Server).handle.func2.1":                     "shogun/internal/serve.(*Server).handle",
		"shogun/internal/mine.ParallelCount.gowrap1":                         "shogun/internal/mine.ParallelCount",
		"shogun/internal/obs.(*Plane).End-fm":                                "shogun/internal/obs.(*Plane).End",
		"shogun/internal/sim.Func.Act":                                       "shogun/internal/sim.Func.Act",
		"shogun/internal/setops.init.0":                                      "shogun/internal/setops.init",
		"main.run.deferwrap1":                                                "shogun/cmd/mine.run",
		"main.main":                                                          "shogun/cmd/mine.main",
	} {
		if got := symbolKey(sym, "shogun/cmd/mine"); got != want {
			t.Errorf("symbolKey(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestLinkSymbols(t *testing.T) {
	linked := map[string]bool{}
	nm := "  4dab80 T main.main\n  4e2180 T shogun/internal/graph.(*Graph).Degree\n  4f0000 R runtime.rodata\n"
	if got := linkSymbols(nm, "shogun/cmd/mine", linked); got != "" {
		t.Errorf("linkSymbols found a method lookup %q in a binary without one", got)
	}
	for _, want := range []string{"shogun/cmd/mine.main", "shogun/internal/graph.(*Graph).Degree"} {
		if !linked[want] {
			t.Errorf("%s not marked linked", want)
		}
	}
	if linked["runtime.rodata"] {
		t.Error("a data symbol was marked linked")
	}
	for sym := range reflectLookup {
		if got := linkSymbols("  4dab80 T main.main\n  4dae20 T "+sym+"\n", "shogun/cmd/x", linked); got != sym {
			t.Errorf("linkSymbols missed %s: got %q", sym, got)
		}
	}
}
