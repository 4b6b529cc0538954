package main

// Every call into repro/internal lives in this file, so a change to the
// scenario, experiments or shard API touches one benchmark file.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fsio"
	"repro/internal/scenario"
	"repro/internal/shard"
)

// workload is one benchmark input family. Its timed phase runs batches;
// batch b runs round b mod rounds, and every round has a committed digest
// for seeds 1 and 2. A 25 s run of a simulation workload does not wrap,
// so it averages over as many distinct seeds as it fits.
type workload struct {
	name   string
	rounds int
	// Exactly one of simRound and sweepRound is set. It makes one round's
	// configs or plan spec from the round's base seed; scale divides
	// every simulated duration.
	simRound   func(base uint64, scale float64) []scenario.Config
	sweepRound func(base uint64, scale float64) experiments.PlanSpec
}

// figureProtocols is one figure point's protocol set, in legend order.
var figureProtocols = []scenario.ProtocolKind{
	scenario.SSSPST, scenario.SSSPSTT, scenario.SSSPSTF, scenario.SSSPSTE,
	scenario.SSMST, scenario.MAODV, scenario.ODMRP, scenario.Flood,
}

// figurePoint is one figure point at the paper's scale: every protocol
// on 4 replication seeds of base, N=50 in 750 m, random waypoint at
// 5 m/s. The 8 protocol runs of one seed share a mobility trace.
func figurePoint(base uint64, duration float64, mutate func(*scenario.Config)) []scenario.Config {
	var cfgs []scenario.Config
	for s := 0; s < 4; s++ {
		for _, p := range figureProtocols {
			cfg := scenario.Default()
			cfg.Protocol = p
			cfg.VMax = 5
			cfg.Duration = duration
			cfg.Seed = scenario.ReplicationSeed(base, s)
			if mutate != nil {
				mutate(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

var workloads = []workload{
	// The unit the figure tools schedule, at the paper's scale. The trace
	// cache replays 7 of 8 runs; medium and event kernel take most CPU;
	// the flood runs set p90.
	{
		name:   "figure-point",
		rounds: 20,
		simRound: func(base uint64, scale float64) []scenario.Config {
			return figurePoint(base, 120/scale, nil)
		},
	},
	// N=120 at the paper's density with distinct seeds: the spatial index
	// and SS-SPST neighbour handling do the most work, the trace cache
	// does nothing, flood and the baselines are absent. Each SS-SPST node
	// keeps a dense N-entry neighbour table, so the working set grows as
	// N². At N=120 it fits a core's 2 MB L2 cache. At N=200 (5 MB) it
	// spills into the L3 cache that other tenants of the host share, and
	// a memory-bound neighbour raised its cycles by 10%, against 2% at
	// N=120 (see bench/README.md).
	{
		name:   "scale-120",
		rounds: 32,
		simRound: func(base uint64, scale float64) []scenario.Config {
			cfgs := make([]scenario.Config, 32)
			for i := range cfgs {
				cfg := scenario.Default()
				cfg.Protocol = scenario.SSSPSTE
				cfg.N = 120
				cfg.AreaSide = 1162
				cfg.GroupSize = 24
				cfg.Duration = 60 / scale
				cfg.Seed = scenario.ReplicationSeed(base, i)
				cfgs[i] = cfg
			}
			return cfgs
		},
	},
	// The figure-point engine and medium used differently: 8 protocol
	// instances per radio, per-group tallies, two fault draws per
	// reception, crash/reboot restarts and the full check tier. A gain on
	// the single-group path that costs these paths shows here.
	{
		name:   "groups-faults",
		rounds: 20,
		simRound: func(base uint64, scale float64) []scenario.Config {
			return figurePoint(base, 60/scale, func(c *scenario.Config) {
				c.Groups = 8
				c.Faults.Loss.PGoodBad = 0.05
				c.Faults.Loss.PBadGood = 1.0 / 8
				c.Faults.Loss.LossBad = 0.8
				c.Faults.CrashMTBF = c.Duration / 2
				c.MemberChurnInterval = 10 / scale
				c.Check = scenario.CheckFull
			})
		},
	},
	// Orchestration and durability: two journaled shards of figures 14
	// and 18 (132 jobs), artifacts, merge and tables. Every other workload
	// bypasses shard and fsio.
	{
		name:   "sharded-sweep",
		rounds: 16,
		sweepRound: func(base uint64, scale float64) experiments.PlanSpec {
			// Journal cost is per job, not per simulated second, so a
			// reduced scale also cuts the job count.
			seeds := max(1, int(3/scale))
			return experiments.PlanSpec{Figures: []int{14, 18}, Duration: 15 / scale, Seeds: seeds, BaseSeed: base}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundSeed is the base seed of round r.
func roundSeed(seed uint64, r int) uint64 { return scenario.ReplicationSeed(seed, r) }

// warmupBase is the base seed of the warm-up round. It is the same for
// every --seed, so every set-up does the same work and setup_s compares
// like with like.
const warmupBase = 0

// sweepRound is one resolved sharded-sweep round.
type sweepRound struct {
	spec   experiments.PlanSpec
	plan   *experiments.Plan
	cfgs   []scenario.Config
	gridFP string
	meta   []byte
	shards [2][]int // job indices of shard 1/2 and 2/2
}

// runner holds one workload's set-up state: its engine and every round's
// inputs.
type runner struct {
	w      workload
	engine *scenario.Engine
	ctr    *counters // nil: batches count nothing
	sims   [][]scenario.Config
	sweeps []sweepRound
}

// setup builds the round inputs, the engine, and runs one warm-up
// replication per distinct protocol of the warm-up round.
func setup(w workload, seed uint64, scale float64) (*runner, error) {
	r := &runner{w: w, engine: scenario.NewEngine(1)}
	var warm []scenario.Config
	if w.simRound != nil {
		for i := 0; i < w.rounds; i++ {
			r.sims = append(r.sims, w.simRound(roundSeed(seed, i), scale))
		}
		warm = w.simRound(warmupBase, scale)
	} else {
		for i := 0; i < w.rounds; i++ {
			sr, err := resolveSweep(w.sweepRound(roundSeed(seed, i), scale))
			if err != nil {
				return nil, err
			}
			r.sweeps = append(r.sweeps, sr)
		}
		plan, err := w.sweepRound(warmupBase, scale).Plan()
		if err != nil {
			return nil, err
		}
		warm = plan.Jobs()
	}
	var once []scenario.Config
	seen := map[scenario.ProtocolKind]bool{}
	for _, cfg := range warm {
		if !seen[cfg.Protocol] {
			seen[cfg.Protocol] = true
			once = append(once, cfg)
		}
	}
	for _, res := range r.engine.SweepFunc(once, nil) {
		if res.Err != nil {
			return nil, fmt.Errorf("bench: warm-up %v: %w", res.Config.Protocol, res.Err)
		}
	}
	return r, nil
}

func resolveSweep(spec experiments.PlanSpec) (sweepRound, error) {
	plan, err := spec.Plan()
	if err != nil {
		return sweepRound{}, err
	}
	meta, err := json.Marshal(spec)
	if err != nil {
		return sweepRound{}, fmt.Errorf("bench: %w", err)
	}
	sr := sweepRound{spec: spec, plan: plan, cfgs: plan.Jobs(), gridFP: plan.GridFingerprint(), meta: meta}
	for k := range sr.shards {
		sr.shards[k] = shard.Partition(plan.Costs(), k+1, len(sr.shards))
	}
	return sr, nil
}

func (r *runner) close() { r.engine.Close() }

// traceStats returns the engine's cumulative trace-cache replays and
// recordings.
func (r *runner) traceStats() (hits, misses uint64) { return r.engine.TraceStats() }

// batch runs one round and measures it.
func (r *runner) batch(round int) batchStats {
	if r.sweeps != nil {
		return r.sweepBatch(r.sweeps[round%len(r.sweeps)])
	}
	return r.simBatch(r.sims[round%len(r.sims)])
}

// simBatch runs one round of replications on the engine. An op is one
// replication, counted between SweepFunc callbacks.
func (r *runner) simBatch(cfgs []scenario.Config) batchStats {
	b := batchStats{ops: len(cfgs)}
	s := startSnapshot(r.ctr)
	last := s.count
	results := r.engine.SweepFunc(cfgs, func(int, scenario.Result) {
		now := r.ctr.now()
		b.opCounts = append(b.opCounts, now.sub(last))
		last = now
	})
	s.finish(&b)
	b.spans.sweep = b.wall

	h := sha256.New()
	for i, res := range results {
		b.simSec += res.Config.Duration
		if res.Err != nil {
			b.failed++
		} else {
			b.medium.add(res)
		}
		writeJSON(h, shard.RecordOf(i, res, true))
		writeJSON(h, res.Medium)
	}
	b.digest = hex.EncodeToString(h.Sum(nil))
	return b
}

func writeJSON(h hash.Hash, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(err.Error())
	}
	h.Write(data)
}

func (m *mediumTally) add(res scenario.Result) {
	m.rx += res.Medium.RxScheduled
	m.deliveries += res.Medium.Deliveries
	m.corrupt += res.Medium.RxCorrupt
	m.backoffs += res.Medium.Backoffs
	m.tx += res.Medium.Transmissions
}

// sweepBatch runs one sharded sweep the way cmd/figures and
// cmd/mergefigs do: per shard a fresh journal with one Append per
// completed job, then an artifact; then read both artifacts back, merge,
// rehydrate and format the tables. An op is one job including its
// journal append.
//
// The journals and artifacts live in a memFS. On a shared virtual disk a
// durable rename takes tens of milliseconds and its median moves by 15%
// within seconds, so wall time on a real disk measures the disk, and the
// compute between two such waits runs on a cold CPU. In memory the
// timings measure the shard layer's own work (encoding, sealing, merging);
// every durable call it makes is still counted exactly.
func (r *runner) sweepBatch(sr sweepRound) batchStats {
	b := batchStats{ops: len(sr.cfgs)}
	fsys := &memFS{files: map[string][]byte{}}
	s := startSnapshot(r.ctr)
	tables, err := r.runSweep(sr, fsys, &b)
	s.finish(&b)
	b.fs = fsys.stats
	for _, cfg := range sr.cfgs {
		b.simSec += cfg.Duration
	}
	if err != nil {
		b.err = err
		b.failed = b.ops
		return b
	}
	b.digest = digestText(tables)
	return b
}

func (r *runner) runSweep(sr sweepRound, fsys fsio.FS, b *batchStats) (string, error) {
	results := make([]scenario.Result, len(sr.cfgs))
	paths := make([]string, len(sr.shards))
	for k, sel := range sr.shards {
		journal, _, err := shard.OpenJournalFS(fsys, fmt.Sprintf("journal-%d", k+1), "figures", sr.gridFP)
		if err != nil {
			return "", err
		}
		run := make([]scenario.Config, len(sel))
		for i, gi := range sel {
			run[i] = sr.cfgs[gi]
		}
		var appendErr error
		start := time.Now()
		last := r.ctr.now()
		r.engine.SweepFunc(run, func(i int, res scenario.Result) {
			entered := time.Now()
			gi := sel[i]
			results[gi] = res
			if res.Err != nil {
				b.failed++
			} else {
				b.medium.add(res)
			}
			if err := journal.Append(shard.RecordOf(gi, res, false)); err != nil && appendErr == nil {
				appendErr = err
			}
			b.spans.journalAppend += time.Since(entered)
			now := r.ctr.now()
			b.opCounts = append(b.opCounts, now.sub(last))
			last = now
		})
		b.spans.sweep += time.Since(start)
		if appendErr != nil {
			return "", appendErr
		}

		t0 := time.Now()
		art := &shard.Artifact{
			Kind: "figures", Shard: k + 1, Shards: len(sr.shards),
			TotalJobs: len(sr.cfgs), GridFP: sr.gridFP, Meta: sr.meta,
		}
		for _, gi := range sel {
			art.Jobs = append(art.Jobs, shard.RecordOf(gi, results[gi], false))
		}
		paths[k] = fmt.Sprintf("shard-%d.json", k+1)
		if err := shard.WriteArtifactFS(fsys, paths[k], art); err != nil {
			return "", err
		}
		b.spans.artifact += time.Since(t0)
	}

	t0 := time.Now()
	arts := make([]*shard.Artifact, len(paths))
	for k, p := range paths {
		a, err := shard.ReadArtifactFS(fsys, p)
		if err != nil {
			return "", err
		}
		arts[k] = a
	}
	t1 := time.Now()
	b.spans.artifact += t1.Sub(t0)
	recs, err := shard.Merge(arts, paths, "figures", sr.gridFP, len(sr.cfgs))
	if err != nil {
		return "", err
	}
	merged := make([]scenario.Result, len(recs))
	for i, rec := range recs {
		merged[i] = rec.Result(sr.cfgs[i])
	}
	tables, err := sr.plan.Tables(merged)
	if err != nil {
		return "", err
	}
	var text strings.Builder
	for _, t := range tables {
		text.WriteString(t.Format())
	}
	b.spans.mergeTables += time.Since(t1)
	return text.String(), nil
}

func digestText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// reference returns an independent digest for round r of a sharded
// sweep: the same plan generated unsharded, with no journal, through
// experiments.Generate. Simulation workloads have none ("").
func (r *runner) reference(round int) (string, error) {
	if r.sweeps == nil {
		return "", nil
	}
	return unshardedDigest(r.sweeps[round%len(r.sweeps)].spec)
}

func unshardedDigest(spec experiments.PlanSpec) (string, error) {
	o := experiments.Options{Duration: spec.Duration, Seeds: spec.Seeds, BaseSeed: spec.BaseSeed}
	tables, err := experiments.Generate(o, spec.Figures, nil)
	if err != nil {
		return "", err
	}
	var text strings.Builder
	for _, t := range tables {
		text.WriteString(t.Format())
	}
	return digestText(text.String()), nil
}

// memFS is an in-memory fsio.FS that counts the durable-write calls made
// through it: file and directory syncs, renames and bytes written. The
// engine runs one job at a time on the calling goroutine, so it needs no
// lock.
type memFS struct {
	files map[string][]byte
	temps int
	stats fsStats
}

// fsStats counts a memFS's durable-write calls.
type fsStats struct{ syncs, renames, writeBytes int64 }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	m.temps++
	name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.temps), 1))
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return bytes.Clone(data), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	m.stats.renames++
	return nil
}

func (m *memFS) Remove(path string) error {
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) SyncDir(string) error {
	m.stats.syncs++
	return nil
}

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.stats.writeBytes += int64(len(p))
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.stats.syncs++
	return nil
}

func (f *memFile) Close() error { return nil }
