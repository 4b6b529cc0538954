package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shard"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable with -child for every workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

// runBench runs the benchmark at 1/16 scale and returns its exit code,
// its digest lines and its parsed result.
func runBench(t *testing.T, expected string, args ...string) (int, []string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-seed", "1", "-seconds", "0.1", "-scale", "16",
		"-expected", expected}, args...)
	code := run(args, &out, &errb)
	var digests []string
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "digest ") {
			digests = append(digests, last)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%v: last line %q is not a result (exit %d): %v\nstderr:\n%s", args, last, code, err, errb.String())
	}
	return code, digests, res
}

func writeExpected(t *testing.T, exp expectedFile) string {
	t.Helper()
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want map[string]string) {
	t.Helper()
	for k, unit := range want {
		m, ok := got[k]
		if !ok {
			t.Errorf("%s: metric %s missing", name, k)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", name, k, m.Unit, unit)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: metric %s is not declared", name, k)
		}
	}
}

// TestWorkloads runs every declared workload untraced and traced at 1/16
// scale: both print every declared metric with its unit, and the two
// runs print identical digests.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names, endToEnd, perLayer := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	expected := writeExpected(t, expectedFile{Scale: 16})
	for _, name := range names {
		if _, ok := findWorkload(name); !ok {
			t.Fatalf("declared workload %s does not exist", name)
		}
		code, d1, res := runBench(t, expected, "-workload", name)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %d, result %+v", name, code, res)
		}
		checkMetrics(t, name, res.Metrics, endToEnd)

		code, d2, res := runBench(t, expected, "-workload", name, "-trace", "1")
		if code != 0 || !res.Correct {
			t.Errorf("%s -trace 1: exit %d, result %+v", name, code, res)
		}
		checkMetrics(t, name+" -trace 1", res.Metrics, perLayer)
		// Both runs start at round 0; how many rounds follow depends on
		// timing.
		n := min(len(d1), len(d2))
		if n == 0 || strings.Join(d1[:n], "\n") != strings.Join(d2[:n], "\n") {
			t.Errorf("%s: digests differ between runs:\n%v\n%v", name, d1, d2)
		}
	}
}

// TestTamperedDigest checks that a digest mismatch marks the run failed
// and exits non-zero.
func TestTamperedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, _ := findWorkload("figure-point")
	bad := make([]string, w.rounds)
	for i := range bad {
		bad[i] = strings.Repeat("0", 64)
	}
	expected := writeExpected(t, expectedFile{Scale: 16, Digests: map[string]map[string][]string{
		"figure-point": {"1": bad},
	}})
	code, digests, res := runBench(t, expected, "-workload", "figure-point")
	if code == 0 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Errorf("tampered digest: exit %d, result %+v", code, res)
	}
	if len(digests) == 0 || !strings.HasSuffix(digests[0], " checked") {
		t.Errorf("digest lines %q, want the first marked checked", digests)
	}
}

// TestCounters checks that the thread's counters see a loop of known
// length: at least one instruction per iteration, and cycles.
func TestCounters(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ctr, err := openCounters()
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.close()
	const n = 10_000_000
	before := ctr.now()
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	got := ctr.now().sub(before)
	if ctr.err != nil || got.instructions < n || got.cycles == 0 || x == 0 {
		t.Errorf("counted %+v over %d iterations (err %v)", got, n, ctr.err)
	}
}

// TestMemFS checks that the in-memory filesystem counts exactly what one
// Journal.Append does on a fresh journal: the temp-file sync and the
// directory sync, one rename, and the journal's bytes.
func TestMemFS(t *testing.T) {
	fsys := &memFS{files: map[string][]byte{}}
	j, _, err := shard.OpenJournalFS(fsys, "journal", "figures", "grid")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(shard.JobRecord{Index: 0, Seed: 1, FP: "fp"}); err != nil {
		t.Fatal(err)
	}
	size := int64(len(fsys.files["journal"]))
	if got := fsys.stats; got != (fsStats{syncs: 2, renames: 1, writeBytes: size}) || size == 0 || len(fsys.files) != 1 {
		t.Errorf("recorded %+v with files %v; want 2 syncs, 1 rename, %d bytes in one file", got, fsys.files, size)
	}
	// The journal reopens from what the filesystem holds.
	j, skipped, err := shard.OpenJournalFS(fsys, "journal", "figures", "grid")
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || j.Len() != 1 {
		t.Errorf("reopen: %d records, %d skipped", j.Len(), skipped)
	}
}
