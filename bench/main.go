// Command bench is the repository's benchmark. It runs four workloads
// through the simulator's public APIs, prints every end-to-end metric by
// name with its unit, and checks each workload's outputs against the
// digests committed in bench/expected.json. With -trace 1 it reruns the
// same rounds under a CPU profile and reports per-layer metrics instead.
//
//	bash bench/run.sh --workload figure-point --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --seed 1             # all four workloads
//	bash bench/run.sh --update             # regenerate bench/expected.json
//
// Each workload runs in a fresh child process of this binary, so peak RSS
// and set-up time are per workload and no heap state carries over. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/layers"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	update   bool
	expected string
	scale    float64
	child    bool
}

// setupRepeats is how many times a child sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// profileHz is the CPU profiling rate of a traced run.
const profileHz = 1000

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed the workload inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase")
	fs.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a profiled rerun")
	fs.BoolVar(&o.update, "update", false, "regenerate the expected digests for seeds 1 and 2")
	fs.StringVar(&o.expected, "expected", "bench/expected.json", "expected digest file")
	fs.Float64Var(&o.scale, "scale", 1, "divide every simulated duration by this factor")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (internal)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("bench: unexpected arguments %q", fs.Args())
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, fmt.Errorf("bench: unknown workload %q", o.workload)
		}
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("bench: -trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) || !(o.scale >= 1) {
		return o, fmt.Errorf("bench: need -seconds > 0 and -scale >= 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch {
	case o.child:
		return runChild(o, stdout, stderr)
	case o.update:
		if err := update(o, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	default:
		return runParent(o, stdout, stderr)
	}
}

func (o options) names() []string {
	if o.workload != "" {
		return []string{o.workload}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runParent runs each selected workload in a child process, one at a
// time, and prints the result. With several workloads the metrics are
// keyed "<workload>/<metric>".
func runParent(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := o.names()
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		var out bytes.Buffer
		cmd := exec.Command(exe, "-child", "-workload", name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace),
			"-expected", o.expected,
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		text := strings.TrimRight(out.String(), "\n")
		last := text[strings.LastIndexByte(text, '\n')+1:]
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result (%v)\n", name, runErr)
			return 1
		}
		io.WriteString(stdout, text[:len(text)-len(last)])
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild sets one workload up, runs its timed phase (and, with -trace,
// the profiled rerun), verifies every batch and prints the result.
func runChild(o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// The engine runs every replication on this goroutine. Holding it on
	// one thread lets the counters opened here see all of that work; the
	// concurrent garbage collector's other thread stays out of them.
	runtime.LockOSThread()
	w, _ := findWorkload(o.workload)
	exp, err := loadExpected(o.expected)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ctr, err := openCounters()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer ctr.close()

	var setupS []float64
	var r *runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		if r, err = setup(w, o.seed, o.scale); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer r.close()
	r.ctr = ctr

	phase := o.seconds
	if o.trace == 1 {
		phase /= 2
	}
	var untraced, traced []batchStats
	for start := time.Now(); len(untraced) == 0 || time.Since(start).Seconds() < phase; {
		untraced = append(untraced, measureRound(r, len(untraced)))
	}
	var metrics map[string]metric
	if o.trace == 1 {
		hits0, misses0 := r.traceStats()
		var prof bytes.Buffer
		// pprof always asks for 100 Hz, too coarse for the layers that
		// hold 1% of a short traced phase. Setting the rate first wins
		// (the runtime logs that pprof's own request was ignored); the
		// kernel's tick may still cap it, so only shares are read from
		// the profile.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for i := range untraced {
			traced = append(traced, measureRound(r, i))
		}
		pprof.StopCPUProfile()
		hits, misses := r.traceStats()
		p, err := layers.Parse(prof.Bytes())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		samples, byLayer := layers.Attribute(p, layers.Simulator)
		metrics = perLayer(traced, untraced, samples, byLayer, hits-hits0, misses-misses0)
	} else {
		metrics = endToEnd(untraced, setupS)
	}
	if ctr.err != nil {
		fmt.Fprintln(stderr, ctr.err)
		return 1
	}

	res := verify(o, w, r, exp, append(untraced, traced...), stdout, stderr)
	res.Metrics = metrics
	if err := printResult(stdout, w.name, o, untraced, res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func measureRound(r *runner, i int) batchStats {
	b := r.batch(i)
	b.round = i % r.w.rounds
	return b
}

// verify checks every batch: its runs must not fail, a repeated round
// must reproduce its first digest, a round with a committed digest must
// match it, and a sharded round must match the unsharded reference. A
// batch that fails a check counts all its ops as failed.
func verify(o options, w workload, r *runner, exp expectedFile, bs []batchStats, stdout, stderr io.Writer) result {
	want := exp.Digests[w.name][strconv.FormatUint(o.seed, 10)]
	if exp.Scale != o.scale {
		want = nil
	}
	first := map[int]string{}
	res := result{}
	for _, b := range bs {
		res.Attempted += b.ops
		res.Failed += b.failed
		var problem error
		prev, seen := first[b.round]
		switch {
		case b.err != nil:
			problem = b.err
		case seen && prev != b.digest:
			problem = fmt.Errorf("digest %s differs from this run's first digest %s of the round", b.digest, prev)
		case !seen && b.round < len(want):
			if want[b.round] != b.digest {
				problem = fmt.Errorf("digest %s, expected %s", b.digest, want[b.round])
			}
		case !seen:
			ref, err := r.reference(b.round)
			if err != nil {
				problem = err
			} else if ref != "" && ref != b.digest {
				problem = fmt.Errorf("sharded digest %s, unsharded %s", b.digest, ref)
			}
		}
		if !seen {
			first[b.round] = b.digest
			status := "unchecked"
			if b.round < len(want) {
				status = "checked"
			}
			fmt.Fprintf(stdout, "digest %s seed=%d round=%d %s %s\n", w.name, o.seed, b.round, b.digest, status)
		}
		if problem != nil {
			fmt.Fprintf(stderr, "bench: %s round %d: %v\n", w.name, b.round, problem)
			res.Failed += b.ops - b.failed
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func printResult(stdout io.Writer, name string, o options, bs []batchStats, res result) error {
	count, wall := sums(bs)
	var simSec float64
	var ops int
	for _, b := range bs {
		simSec += b.simSec
		ops += len(b.opCounts)
	}
	fmt.Fprintf(stdout, "%s seed=%d batches=%d ops=%d simsec=%g wall=%.3fs attempted=%d failed=%d\n",
		name, o.seed, len(bs), ops, simSec, wall.Seconds(), res.Attempted, res.Failed)
	// Time is printed for reading but reported only with -trace 1: the
	// host moves it more than any bound (see bench/README.md).
	fmt.Fprintf(stdout, "  wall %.0f ns/simsec, cpu %.0f ns/simsec, %.0f cycles/simsec at %.2f GHz, %.2f instrs/cycle\n",
		perBatch(bs, func(b batchStats) float64 { return float64(b.wall) }),
		perBatch(bs, func(b batchStats) float64 { return float64(b.cpu) }),
		perBatch(bs, func(b batchStats) float64 { return float64(b.count.cycles) }),
		float64(count.cycles)/float64(wall), float64(count.instructions)/float64(count.cycles))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// expectedFile is bench/expected.json: per workload and seed, one digest
// per round, for runs at the recorded scale.
type expectedFile struct {
	Scale   float64                        `json:"scale"`
	Digests map[string]map[string][]string `json:"digests"`
}

func loadExpected(path string) (expectedFile, error) {
	var exp expectedFile
	data, err := os.ReadFile(path)
	if err != nil {
		return exp, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		return exp, fmt.Errorf("bench: %s: %w", path, err)
	}
	return exp, nil
}

// update regenerates the expected digests of the selected workloads for
// seeds 1 and 2 at the current scale. Sharded rounds take their digest
// from the unsharded reference, so a run checks sharded == unsharded.
func update(o options, stderr io.Writer) error {
	exp, err := loadExpected(o.expected)
	if errors.Is(err, os.ErrNotExist) || (err == nil && exp.Scale != o.scale) {
		exp, err = expectedFile{}, nil
	}
	if err != nil {
		return err
	}
	exp.Scale = o.scale
	if exp.Digests == nil {
		exp.Digests = map[string]map[string][]string{}
	}
	for _, name := range o.names() {
		w, _ := findWorkload(name)
		exp.Digests[name] = map[string][]string{}
		for _, seed := range []uint64{1, 2} {
			r, err := setup(w, seed, o.scale)
			if err != nil {
				return err
			}
			var ds []string
			for i := 0; i < w.rounds; i++ {
				d, err := r.reference(i)
				if err != nil {
					return err
				}
				if d == "" {
					b := r.batch(i)
					if b.failed > 0 {
						return fmt.Errorf("bench: %s seed %d round %d: %d of %d runs failed", name, seed, i, b.failed, b.ops)
					}
					d = b.digest
				}
				ds = append(ds, d)
			}
			r.close()
			exp.Digests[name][strconv.FormatUint(seed, 10)] = ds
			fmt.Fprintf(stderr, "bench: %s seed %d: %d round digests\n", name, seed, len(ds))
		}
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.WriteFile(o.expected, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
