// Command perfbench is the repository's benchmark: one program for the
// live thinner (thinnerd as a child process, driven over loopback by
// an in-process generator) and for the simulator (in process).
//
// Usage, from the repository root (perfbench/run.sh builds thinnerd
// and this program from the working tree first):
//
//	perfbench -workload flood-wire|churn-wire|direct-http|sim-fig2
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints every end-to-end metric; with -trace 1 it
// runs the workload untraced and then traced (thinnerd -trace-sample)
// and prints every per-layer metric. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the metrics and why each workload exists.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"speakup/internal/core"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every
// workload; BENCHMARK.json bounds them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"admit_per_s", "req/s"},
	{"wait_p50_ms", "ms"},
	{"wait_p90_ms", "ms"},
	{"rss_mb", "MB"},
	{"op_ok_frac", "fraction"},
}

// perLayer are the metrics every traced run prints, on every workload.
// A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"server_cpu_us_per_admit", "us"},
	{"good_share_ratio", "ratio"},
	{"good_served_frac", "fraction"},
	{"good_wait_p50_ms", "ms"},
	{"good_wait_p99_ms", "ms"},
	{"ingest_gbit_per_s", "Gbit/s"},
	{"ingest_gb_per_cpu_s", "GB/cpu-s"},
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
	{"sim_events_per_s", "events/s"},
	{"op_error_frac", "fraction"},
	{"gen.lateness_ms_p99", "ms"},
	{"gen.cpu_s", "s"},
	{"gen.gomaxprocs", "count"},
	{"gen.conns", "count"},
	{"thinnerd.gomaxprocs", "count"},
	{"wire.frames_per_s", "1/s"},
	{"wire.credit_block_us_p50", "us"},
	{"wire.credit_block_us_p99", "us"},
	{"wire.open_to_verdict_ms_p50", "ms"},
	{"wire.open_to_verdict_ms_p99", "ms"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.decode_allocs_per_frame", "count"},
	{"web.serve_ns", "ns"},
	{"web.serve_allocs", "count"},
	{"core.auctions_per_s", "1/s"},
	{"core.direct_admit_frac", "fraction"},
	{"core.contenders_p50", "count"},
	{"core.evicted_per_s", "1/s"},
	{"core.going_price_kb_p50", "KB"},
	{"core.open_channels_end", "count"},
	{"core.settled_bytes_frac", "fraction"},
	{"core.credit_ns", "ns"},
	{"core.credit_allocs", "count"},
	{"core.winner_ns", "ns"},
	{"core.winner_allocs", "count"},
	{"core.sweep_ns", "ns"},
	{"core.sweep_allocs", "count"},
	{"thinnerd.cpu_util", "cpu"},
	{"origin.util", "fraction"},
	{"trace.wait_to_admit_ms_p50", "ms"},
	{"trace.wait_to_admit_ms_p99", "ms"},
	{"trace.client_gap_ms_p50", "ms"},
	{"trace.blocking_cover_frac", "fraction"},
	{"trace.rounds_lost_p50", "count"},
	{"trace.credit_gap_ms_p99", "ms"},
	{"trace.overhead_frac", "fraction"},
	{"trace.drops", "count"},
	{"trace.records", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sweep.cell_s_max", "s"},
}

var workloads = map[string]func() liveSpec{
	"flood-wire":  floodSpec,
	"churn-wire":  churnSpec,
	"direct-http": directSpec,
}

func main() {
	workload := flag.String("workload", "", "flood-wire, churn-wire, direct-http or sim-fig2")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured window, seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	bin := flag.String("thinnerd", ".bench_build/thinnerd", "thinnerd binary built from the working tree")
	flag.Parse()
	runtime.GOMAXPROCS(nconns())
	if err := checkManifest("BENCHMARK.json"); err != nil {
		fail(err)
	}
	if _, ok := workloads[*workload]; !ok && *workload != "sim-fig2" {
		fail(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	res, err := run(*workload, *bin, *seed, *seconds, *traced == 1)
	if err != nil {
		fail(err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traced)
	for _, n := range res.notes {
		fmt.Fprintf(out, "# check failed: %s\n", n)
	}
	host, _ := json.Marshal(res.host)
	fmt.Fprintf(out, "# host %s\n", host)
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]metricJSON)}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(out, "%-30s %16.6g %s\n", d.name, v, d.unit)
		final.Metrics[d.name] = metricJSON{v, d.unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// nconns is the wire workloads' connection count and the generator's
// GOMAXPROCS: the host's CPU count, capped at 2 so the generator's shape
// does not change with the host.
func nconns() int { return min(runtime.NumCPU(), 2) }

func coreID(id uint64) core.RequestID { return core.RequestID(id) }

// idBase derives a run's first request id from its seed, so seeds
// differ in ids (and hence in bid-table shards and trace sampling).
func idBase(seed int64) uint64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return 1 + x%(1<<40)
}

type runResult struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string
	host      map[string]any
}

// add counts a run's output checks into the result.
func (r *runResult) add(c checks) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.notes = append(r.notes, c.notes...)
	r.metrics["op_error_frac"] = ratio(float64(r.failed), float64(r.attempted))
	r.metrics["op_ok_frac"] = 1 - r.metrics["op_error_frac"]
}

func run(workload, bin string, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{host: hostFingerprint()}
	if workload == "sim-fig2" {
		runtime.GOMAXPROCS(1)
		res.host["gen_gomaxprocs"] = 1
		m, c, err := runSim(seed, seconds)
		if err != nil {
			return nil, err
		}
		res.metrics = m
		res.add(c)
		return res, nil
	}
	// The generator's own garbage collection would add its pauses to
	// the latencies it measures; it collects only past a memory limit.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(256 << 20)
	spec := workloads[workload]()
	// One P per connection the generator drives: direct-http's single
	// client leaves the other CPU to the front.
	runtime.GOMAXPROCS(spec.conns)
	res.host["gen_gomaxprocs"] = spec.conns
	if traced {
		// The untraced and traced runs share the run's seconds.
		seconds = max(seconds/2, 1)
	}
	lr, err := runLive(spec, bin, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	res.metrics = lr.liveMetrics()
	res.add(lr.verify())
	recordLive(res.host, lr)
	if !traced {
		return res, nil
	}

	// The traced run: layer metrics (dotted names) and the trace join
	// come from it; the workload figures of merit stay the untraced
	// run's. The difference between the two is the tracing overhead.
	tr, err := runLive(spec, bin, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	res.add(tr.verify())
	tm := tr.liveMetrics()
	switch {
	case tm["ingest_gb_per_cpu_s"] > 0:
		res.metrics["trace.overhead_frac"] = ratio(res.metrics["ingest_gb_per_cpu_s"], tm["ingest_gb_per_cpu_s"]) - 1
	case tm["server_cpu_us_per_admit"] > 0:
		res.metrics["trace.overhead_frac"] = ratio(tm["server_cpu_us_per_admit"], res.metrics["server_cpu_us_per_admit"]) - 1
	}
	for k, v := range tm {
		if strings.Contains(k, ".") {
			res.metrics[k] = v
		}
	}
	for k, v := range tr.traceMetrics() {
		res.metrics[k] = v
	}
	if path, err := tr.writeSpans(filepath.Join(".bench_build", "spans"), seed); err == nil {
		res.host["spans_file"] = path
	}
	if err := replays(res.metrics, tr); err != nil {
		return nil, err
	}
	if workload == "churn-wire" {
		// sim-fig2 is not gated, so the sim stack's layers are
		// measured here, on the traced run of its live twin.
		if err := simLayers(res, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simLayers runs the Fig 2 grid twice in process, as sim-fig2 does,
// checks the second repetition against the first, and adds the sim
// and sweep layer metrics. The live run's thinnerd has exited by now;
// the grid gets one P and the default garbage collector, as on
// sim-fig2.
func simLayers(res *runResult, seed int64) error {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	m, c, err := runSim(seed, 0)
	if err != nil {
		return err
	}
	res.add(c)
	for _, k := range []string{"sim_events_per_s", "sim.events", "sim.ns_per_event", "sim.allocs_per_event", "sweep.cell_s_max"} {
		res.metrics[k] = m[k]
	}
	return nil
}

// replays runs the in-process layer replays at the sizes the traced
// run reached.
func replays(m map[string]float64, lr *liveRun) error {
	if lr.gen.log != nil && len(lr.gen.log.frames) > 0 {
		stream, frames := lr.gen.log.stream()
		ns, allocs, err := replayDecode(stream, frames)
		if err != nil {
			return err
		}
		m["wire.decode_ns_per_frame"], m["wire.decode_allocs_per_frame"] = ns, allocs
	}
	if n := int(m["core.open_channels_end"]); n > 0 {
		m["core.credit_ns"], m["core.credit_allocs"] = replayCredit(n)
		m["core.sweep_ns"], m["core.sweep_allocs"] = replaySweep(n)
	}
	if n := int(m["core.contenders_p50"]); n > 0 {
		m["core.winner_ns"], m["core.winner_allocs"] = replayWinner(n)
	}
	// The web layer's replay runs on every live workload, so it is
	// measured even where direct-http is not run.
	ns, allocs, err := replayServe(20000)
	if err != nil {
		return err
	}
	m["web.serve_ns"], m["web.serve_allocs"] = ns, allocs
	return nil
}

// recordLive adds the run's process split to the host record: each
// side's CPU and scheduler width, kept apart.
func recordLive(h map[string]any, lr *liveRun) {
	h["gen_conns"] = lr.gen.conns
	h["thinnerd_gomaxprocs"] = lr.b.get("speakup_gomaxprocs")
	h["thinnerd_cpu_s"] = (lr.b.cpu - lr.a.cpu).Seconds()
	h["thinnerd_peak_rss_mb"] = lr.rssMB
	h["gen_cpu_s"] = lr.genCPU.Seconds()
	h["window_s"] = lr.windowS()
	h["requests"] = len(lr.gen.reqs)
}

func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":      model,
		"nproc":          runtime.NumCPU(),
		"gen_gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         commit(),
		"source_sha256":  sourceHash("."),
	}
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root,
// which identifies the code under test where there is no .git.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkManifest fails when BENCHMARK.json and the metric tables above
// disagree, so the manifest cannot drift from what the program prints.
func checkManifest(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read manifest: %w", err)
	}
	var mf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &mf); err != nil {
		return fmt.Errorf("parse manifest: %w", err)
	}
	same := func(list []struct{ Name, Unit string }, defs []metricDef) bool {
		if len(list) != len(defs) {
			return false
		}
		for i, d := range defs {
			if list[i].Name != d.name || list[i].Unit != d.unit {
				return false
			}
		}
		return true
	}
	if !same(mf.EndToEnd, endToEnd) || !same(mf.PerLayer, perLayer) {
		return fmt.Errorf("%s lists other metrics than perfbench prints", path)
	}
	return nil
}
