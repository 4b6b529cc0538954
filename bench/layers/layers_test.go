package layers

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"kernel under run", []string{
			"repro/internal/eventq.(*Queue).Pop",
			"repro/internal/sim.(*Simulator).Run",
			"repro/internal/scenario.(*RunContext).RunTracedE",
			"repro/internal/scenario.(*Engine).runJob",
		}, Kernel},
		{"transparent helpers count to their caller", []string{
			"math.Sqrt",
			"repro/internal/geom.Point.Dist",
			"runtime.mallocgc",
			"repro/internal/medium.(*Medium).Transmit.func1",
			"repro/internal/sim.(*Simulator).Run",
			"repro/internal/scenario.(*RunContext).RunTracedE",
		}, Medium},
		{"fault paths are medium", []string{
			"repro/internal/xrand.(*RNG).Bool",
			"repro/internal/faults.(*GEChain).Drop",
			"repro/internal/medium.(*Medium).deliver",
			"repro/internal/sim.(*Simulator).Run",
		}, Medium},
		{"check overrides the leaf layer", []string{
			"repro/internal/netsim.(*Network).CheckConservation",
			"repro/internal/scenario.checkInvariants",
			"repro/internal/scenario.(*RunContext).RunTracedE",
		}, Check},
		{"outside the kernel run is engine reset", []string{
			"runtime.memclrNoHeapPointers",
			"repro/internal/core.(*Protocol).Reset",
			"repro/internal/scenario.(*RunContext).attachProtocols",
			"repro/internal/scenario.(*RunContext).RunTracedE",
		}, EngineReset},
		{"scheduler outside a run", []string{
			"repro/internal/scenario.(*jobHeap).pop",
			"repro/internal/scenario.(*Engine).sweep",
		}, EngineSched},
		{"generic receiver", []string{
			"repro/internal/eventq.(*Heap[go.shape.*repro/internal/sim.event]).Push",
		}, Kernel},
		{"orchestration", []string{
			"encoding/json.Marshal",
			"repro/internal/shard.(*Journal).Flush",
			"main.runShard",
		}, Orchestration},
		{"gc worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}, RuntimeGC},
		{"bench bookkeeping", []string{
			"crypto/sha256.block",
			"main.digest",
		}, Other},
	}
	for _, c := range cases {
		if got := Classify(c.stack, Simulator); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/medium.(*Medium).deliver":            "repro/internal/medium",
		"runtime.mallocgc":                                   "runtime",
		"main.main.func1":                                    "main",
		"repro/internal/x.F[go.shape.*repro/internal/y.T].g": "repro/internal/x",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

//go:noinline
func busyLoop(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestRealProfile profiles a busy loop in this package and checks that
// the parsed profile attributes most CPU time to it.
func TestRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink := busyLoop(400 * time.Millisecond)
	pprof.StopCPUProfile()
	_ = sink

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.ValueIndex("cpu/nanoseconds") < 0 {
		t.Fatalf("no cpu/nanoseconds column in %v", p.SampleTypes)
	}
	total, by := Attribute(p, map[string]string{"repro/bench/layers": "busy"})
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	if share := float64(by["busy"]) / float64(total); share < 0.8 {
		t.Errorf("busy loop holds %.2f of CPU time, want >= 0.8 (by layer: %v)", share, by)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	// Field 6 (string table), length 10, but only 2 payload bytes.
	if _, err := Parse([]byte{6<<3 | 2, 10, 'a', 'b'}); err == nil {
		t.Error("truncated message parsed without error")
	}
}
