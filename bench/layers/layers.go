package layers

import "strings"

// The layers a sample can be attributed to, in report order. Other holds
// samples with no layer frame outside the runtime: the benchmark's own
// bookkeeping and the profiler's writer.
const (
	Check            = "check"
	EngineReset      = "engine.reset"
	Kernel           = "kernel"
	Mobility         = "mobility"
	Spatial          = "spatial"
	Medium           = "medium"
	Netsim           = "netsim"
	ProtocolSS       = "protocol.ss"
	ProtocolBaseline = "protocol.baseline"
	Metrics          = "metrics"
	EngineSched      = "engine.sched"
	Orchestration    = "orchestration"
	RuntimeGC        = "runtime.gc"
	Other            = "other"
)

// Names lists every layer in report order.
var Names = []string{
	Check, EngineReset, Kernel, Mobility, Spatial, Medium, Netsim,
	ProtocolSS, ProtocolBaseline, Metrics, EngineSched, Orchestration,
	RuntimeGC, Other,
}

// Simulator maps the repository's packages to their layers. Packages it
// does not name (geom, xrand, energy, packet, fwdpool, topology, runerr,
// the standard library) are transparent: their time counts to the
// nearest layer frame that called them.
var Simulator = map[string]string{
	"repro/internal/sim":         Kernel,
	"repro/internal/eventq":      Kernel,
	"repro/internal/mobility":    Mobility,
	"repro/internal/spatial":     Spatial,
	"repro/internal/medium":      Medium,
	"repro/internal/faults":      Medium,
	"repro/internal/netsim":      Netsim,
	"repro/internal/traffic":     Netsim,
	"repro/internal/core":        ProtocolSS,
	"repro/internal/flood":       ProtocolBaseline,
	"repro/internal/odmrp":       ProtocolBaseline,
	"repro/internal/maodv":       ProtocolBaseline,
	"repro/internal/metrics":     Metrics,
	"repro/internal/scenario":    EngineSched,
	"repro/internal/experiments": Orchestration,
	"repro/internal/shard":       Orchestration,
	"repro/internal/sweepgrid":   Orchestration,
	"repro/internal/fsio":        Orchestration,
}

// Frames the override rules look for.
const (
	checkFrame  = "repro/internal/scenario.checkInvariants"
	runFrame    = "repro/internal/scenario.(*RunContext).RunTracedE"
	kernelFrame = "repro/internal/sim.(*Simulator).Run"
)

// Classify assigns one stack (leaf first) to a layer, applying in order:
//
//  1. a stack through scenario.checkInvariants is Check;
//  2. a stack through scenario.(*RunContext).RunTracedE but not
//     sim.(*Simulator).Run is EngineReset (arena reset, group selection,
//     protocol attach, Summarize);
//  3. otherwise the innermost frame whose package pkgs maps to a layer
//     names it;
//  4. a stack with no such frame is RuntimeGC when every frame is in the
//     runtime package (GC workers, the scheduler), else Other.
func Classify(stack []string, pkgs map[string]string) string {
	inRun, inKernel := false, false
	for _, fn := range stack {
		switch fn {
		case checkFrame:
			return Check
		case runFrame:
			inRun = true
		case kernelFrame:
			inKernel = true
		}
	}
	if inRun && !inKernel {
		return EngineReset
	}
	runtimeOnly := true
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if layer, ok := pkgs[pkg]; ok {
			return layer
		}
		if pkg != "runtime" {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return RuntimeGC
	}
	return Other
}

// funcPackage returns the import path of a profile function name such as
// "repro/internal/medium.(*Medium).deliver" or "pkg.F[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Attribute sums the profile's CPU nanoseconds per layer.
func Attribute(p *Profile, pkgs map[string]string) (total int64, byLayer map[string]int64) {
	col := p.ValueIndex("cpu/nanoseconds")
	byLayer = map[string]int64{}
	for _, s := range p.Samples {
		if col < 0 || col >= len(s.Values) {
			continue
		}
		v := s.Values[col]
		byLayer[Classify(s.Stack, pkgs)] += v
		total += v
	}
	return total, byLayer
}
