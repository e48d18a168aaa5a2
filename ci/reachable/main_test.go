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
