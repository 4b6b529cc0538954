package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/bench/layers"
)

// batchStats is one measured batch: one round of a workload.
type batchStats struct {
	round               int
	wall, cpu           time.Duration
	count               sample // cycles and instructions of the simulating thread
	mallocs, allocBytes uint64
	simSec              float64
	ops, failed         int
	opCounts            []sample // per op
	digest              string
	err                 error
	medium              mediumTally
	spans               spanTally
	fs                  fsStats
}

// mediumTally sums medium.Stats over a batch's successful runs.
type mediumTally struct{ rx, deliveries, corrupt, backoffs, tx int64 }

// spanTally is wall time spent inside the public calls the benchmark
// makes: SweepFunc (including the journal appends its callbacks make),
// the appends alone, artifact write and read, and merge plus tables.
type spanTally struct {
	sweep, journalAppend, artifact, mergeTables time.Duration
}

// snapshot marks the start of a measured interval.
type snapshot struct {
	ctr   *counters
	count sample
	wall  time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func startSnapshot(ctr *counters) *snapshot {
	s := &snapshot{ctr: ctr}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.wall = time.Now()
	s.count = ctr.now()
	return s
}

// finish records the interval since s into b.
func (s *snapshot) finish(b *batchStats) {
	b.count = s.ctr.now().sub(s.count)
	b.wall = time.Since(s.wall)
	b.cpu = cpuTime() - s.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.mallocs = m.Mallocs - s.mem.Mallocs
	b.allocBytes = m.TotalAlloc - s.mem.TotalAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// perBatch is the median over batches of f(b)/b.simSec.
func perBatch(bs []batchStats, f func(b batchStats) float64) float64 {
	v := make([]float64, len(bs))
	for i, b := range bs {
		v[i] = f(b) / b.simSec
	}
	return quantile(v, 0.5)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sums adds up the batches' counts and wall time.
func sums(bs []batchStats) (count sample, wall time.Duration) {
	for _, b := range bs {
		count.cycles += b.count.cycles
		count.instructions += b.count.instructions
		wall += b.wall
	}
	return count, wall
}

// endToEnd computes the end-to-end metrics of an untraced timed phase.
// Work is counted in instructions, not time: see bench/README.md.
func endToEnd(bs []batchStats, setupS []float64) map[string]metric {
	var ops []float64
	for _, b := range bs {
		for _, c := range b.opCounts {
			ops = append(ops, float64(c.instructions)/1e6)
		}
	}
	return map[string]metric{
		"instructions_per_simsec": {perBatch(bs, func(b batchStats) float64 { return float64(b.count.instructions) }), "instrs/simsec"},
		"op_minstrs_p50":          {quantile(ops, 0.5), "Minstrs"},
		"op_minstrs_p90":          {quantile(ops, 0.9), "Minstrs"},
		"allocs_per_simsec":       {perBatch(bs, func(b batchStats) float64 { return float64(b.mallocs) }), "1/simsec"},
		"alloc_bytes_per_simsec":  {perBatch(bs, func(b batchStats) float64 { return float64(b.allocBytes) }), "B/simsec"},
		"peak_rss_mb":             {peakRSSMB(), "MB"},
		"setup_s":                 {quantile(setupS, 0.5), "s"},
	}
}

// timedLayers get a self_cycles_per_simsec metric: every workload spends
// measurable time in them. The rest (check, engine.reset, engine.sched,
// the baselines, orchestration, runtime.gc) hold under 0.1% of CPU on
// some workload and report only their share.
var timedLayers = []string{
	layers.Kernel, layers.Mobility, layers.Spatial, layers.Medium,
	layers.Netsim, layers.ProtocolSS, layers.Metrics,
}

// perLayer computes the per-layer metrics of a traced phase from its
// batches, its CPU profile attribution and the untraced phase that ran
// the same rounds. The profile gives each layer's share; its cycles are
// that share of the simulating thread's measured cycles, because the
// kernel's tick can deliver fewer samples than the profile's period
// assumes.
func perLayer(traced, untraced []batchStats, samples int64, byLayer map[string]int64, hits, misses uint64) map[string]metric {
	var sum batchStats
	untracedCount, untracedWall := sums(untraced)
	for _, b := range traced {
		sum.count.cycles += b.count.cycles
		sum.wall += b.wall
		sum.simSec += b.simSec
		sum.ops += b.ops
		sum.medium.rx += b.medium.rx
		sum.medium.deliveries += b.medium.deliveries
		sum.medium.corrupt += b.medium.corrupt
		sum.medium.backoffs += b.medium.backoffs
		sum.medium.tx += b.medium.tx
		sum.spans.sweep += b.spans.sweep
		sum.spans.journalAppend += b.spans.journalAppend
		sum.spans.artifact += b.spans.artifact
		sum.spans.mergeTables += b.spans.mergeTables
		sum.fs.syncs += b.fs.syncs
		sum.fs.renames += b.fs.renames
		sum.fs.writeBytes += b.fs.writeBytes
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	share := func(l string) float64 { return ratio(float64(byLayer[l]), float64(samples)) }
	m := map[string]metric{}
	for _, l := range layers.Names {
		m[l+".self_share"] = metric{share(l), "share"}
	}
	for _, l := range timedLayers {
		m[l+".self_cycles_per_simsec"] = metric{share(l) * float64(sum.count.cycles) / sum.simSec, "cycles/simsec"}
	}
	md := sum.medium
	m["medium.rx_per_simsec"] = metric{float64(md.rx) / sum.simSec, "1/simsec"}
	m["medium.cycles_per_rx"] = metric{ratio(share(layers.Medium)*float64(sum.count.cycles), float64(md.rx)), "cycles"}
	m["medium.delivery_ratio"] = metric{ratio(float64(md.deliveries), float64(md.rx)), "ratio"}
	m["medium.collision_frac"] = metric{ratio(float64(md.corrupt), float64(md.rx)), "ratio"}
	m["medium.backoffs_per_tx"] = metric{ratio(float64(md.backoffs), float64(md.tx)), "ratio"}
	m["engine.trace_hit_rate"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["tracing_overhead"] = metric{ratio(float64(sum.count.cycles), float64(untracedCount.cycles)) - 1, "ratio"}

	// How fast the host ran the untraced phase: the time metrics that the
	// end-to-end set leaves out because the host moves them.
	m["cpu.cycles_per_simsec"] = metric{perBatch(untraced, func(b batchStats) float64 { return float64(b.count.cycles) }), "cycles/simsec"}
	m["cpu.ipc"] = metric{ratio(float64(untracedCount.instructions), float64(untracedCount.cycles)), "instrs/cycle"}
	m["cpu.ghz"] = metric{ratio(float64(untracedCount.cycles), float64(untracedWall)), "GHz"}
	m["wall.ns_per_simsec"] = metric{perBatch(untraced, func(b batchStats) float64 { return float64(b.wall) }), "ns/simsec"}

	wall := float64(sum.wall)
	sp := sum.spans
	m["span.simulate_share"] = metric{float64(sp.sweep-sp.journalAppend) / wall, "share"}
	m["span.journal_append_share"] = metric{float64(sp.journalAppend) / wall, "share"}
	m["span.artifact_share"] = metric{float64(sp.artifact) / wall, "share"}
	m["span.merge_tables_share"] = metric{float64(sp.mergeTables) / wall, "share"}
	m["span.coverage"] = metric{float64(sp.sweep+sp.artifact+sp.mergeTables) / wall, "share"}
	ops := float64(sum.ops)
	m["fsio.syncs_per_op"] = metric{float64(sum.fs.syncs) / ops, "count"}
	m["fsio.renames_per_op"] = metric{float64(sum.fs.renames) / ops, "count"}
	m["fsio.write_bytes_per_op"] = metric{float64(sum.fs.writeBytes) / ops, "B"}
	return m
}
