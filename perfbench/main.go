// Command perfbench is the benchmark of record for the pilot-study
// simulator: it runs one named workload through the public study
// engines, checks the output, and prints every metric by name with its
// unit. README.md describes the workloads and metrics.
//
//	perfbench --workload clean-mem --seed 1 --seconds 30 --trace 0
//
// Each repetition runs in a fresh child process (the same binary with
// --rep), so peak RSS and set-up time are those of a process that ran
// only that repetition. Repetitions start until --seconds have passed;
// the reported value of each metric is the median over repetitions.
// Time metrics leave out stolen time and are scaled to the reference
// box's speed (clock.go).
// With --trace 1 the repetitions alternate between untraced and traced
// ones and the output holds the per-layer metrics instead.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

// childLimit bounds the whole run, so the command always ends within
// three minutes even if a repetition hangs.
const childLimit = 170 * time.Second

//go:embed digests.json
var digestsJSON []byte

// referenceDigest is the kept digest for (workload, seed), or "".
func referenceDigest(name string, seed int64) string {
	var refs map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &refs); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return refs[name][strconv.FormatInt(seed, 10)]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: clean-mem, stream-ckpt or hostile-mem")
	seed := fl.Int64("seed", 1, "workload seed (study.Spec.Seed)")
	secs := fl.Int("seconds", 10, "keep starting repetitions until this many seconds have passed")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of traced repetitions instead of the end-to-end ones")
	rep := fl.Bool("rep", false, "run one repetition in this process and print its raw result (used by the parent)")
	traced := fl.Bool("traced", false, "with --rep: install the tracing hooks")
	dir := fl.String("dir", "", "with --rep: directory for the streamed workload's sinks and checkpoints")
	spans := fl.String("spans", "", "with --rep --traced: write the kept spans to this CSV file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *rep {
		return runChild(w, *seed, repOptions{dir: *dir, traced: *traced, spans: *spans, want: referenceDigest(w.name, *seed)}, stdout)
	}
	return runParent(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, stdout)
}

// runChild is one repetition: run it, add the process's peak RSS, and
// print the result as one JSON line.
func runChild(w workload, seed int64, o repOptions, stdout io.Writer) int {
	before := calibrate()
	res, err := runRep(w, w.spec(seed), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	after := calibrate()
	res.CalibrationCPUS = seconds(before + after)
	res.Slowdown = float64(before+after) / 2 / referenceLoopNs
	res.SetupS /= res.Slowdown
	res.SweepS /= res.Slowdown
	res.WallS /= res.Slowdown
	res.PeakRSSMB, err = peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// peakRSSMB is this process's VmHWM in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func runParent(w workload, seed int64, budget time.Duration, trace bool, stdout io.Writer) int {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := filepath.Abs(filepath.Join(buildDir, "work"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(childLimit))
	defer cancel()

	var plain, traced []*repResult
	for i := 0; ; i++ {
		tracedRep := trace && i%2 == 1
		r, err := spawn(ctx, self, work, w, seed, tracedRep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: %v\n", i+1, err)
			return 1
		}
		status := "ok"
		if !r.Correct {
			status = "FAILED: " + strings.Join(r.Problems, "; ")
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d rep %d traced=%v: wall %.3fs (raw %.3fs, steal %.3f, slowdown %.4f) setup %.3fs sweep %.3fs cpu %.2fs rss %.0fMB digest %s %s\n",
			w.name, seed, i+1, r.Traced, r.WallS, r.RawWallS, r.StealFrac, r.Slowdown, r.SetupS, r.SweepS, r.CPUS, r.PeakRSSMB, r.Digest, status)
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if time.Since(start) >= budget && (!trace || len(traced) > 0) {
			break
		}
	}

	all := append(append([]*repResult{}, plain...), traced...)
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Probes
		out.Failed += r.Failed
	}
	// One seed, one output: traced and untraced repetitions included.
	for _, r := range all {
		if r.Digest != all[0].Digest {
			fmt.Fprintf(os.Stderr, "perfbench: repetitions disagree: digest %s vs %s\n", r.Digest, all[0].Digest)
			out.Correct, out.Failed = false, out.Attempted
			break
		}
	}
	var rawWall, steal, slowdown []float64
	for _, r := range plain {
		rawWall = append(rawWall, r.RawWallS)
		steal = append(steal, r.StealFrac)
		slowdown = append(slowdown, r.Slowdown)
	}
	samples := map[string]int{}
	if trace {
		layerMetrics(plain, traced, out.Metrics, samples)
	} else {
		endToEndMetrics(plain, out.Metrics, samples)
	}
	info, err := json.Marshal(map[string]any{
		"env":     environment(w, seed),
		"samples": samples,
		// What the corrections of the time metrics took out.
		"raw_wall_s": median(rawWall),
		"steal_frac": median(steal),
		"slowdown":   median(slowdown),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(info))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// spawn runs one repetition in a child process and returns its result.
func spawn(ctx context.Context, self, work string, w workload, seed int64, traced bool) (*repResult, error) {
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"--rep", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--dir", dir}
	if traced {
		spans := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.csv", w.name, seed))
		args = append(args, "--traced", "--spans", spans)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	// A killed parent takes its repetition with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var r repResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &r); err != nil {
		return nil, fmt.Errorf("parsing repetition output: %w", err)
	}
	ps := cmd.ProcessState
	r.CPUS = ((ps.UserTime() + ps.SystemTime()).Seconds() - r.CalibrationCPUS) / r.Slowdown
	return &r, nil
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits are the end-to-end metrics and their units. Their
// values are medians over the untraced repetitions.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"wall_s":           "s",
	"probes_per_s":     "probes/s",
	"cpu_s_per_kprobe": "s",
	"peak_rss_mb":      "MB",
	"ok_frac":          "ratio",
}

func endToEndMetrics(plain []*repResult, out map[string]metric, samples map[string]int) {
	per := map[string][]float64{}
	for _, r := range plain {
		per["setup_s"] = append(per["setup_s"], r.SetupS)
		per["wall_s"] = append(per["wall_s"], r.WallS)
		per["probes_per_s"] = append(per["probes_per_s"], float64(r.Probes)/r.SweepS)
		per["cpu_s_per_kprobe"] = append(per["cpu_s_per_kprobe"], r.CPUS/(float64(r.Probes)/1000))
		per["peak_rss_mb"] = append(per["peak_rss_mb"], r.PeakRSSMB)
		per["ok_frac"] = append(per["ok_frac"], 1-float64(r.Failed)/float64(r.Probes))
	}
	for name, unit := range endToEndUnits {
		out[name] = metric{Value: median(per[name]), Unit: unit}
		samples[name] = len(per[name])
	}
}

// layerMetrics are the per-layer figures: medians over the traced
// repetitions, except the runtime's own accounting, which comes from
// the untraced ones so the hooks cannot disturb it.
func layerMetrics(plain, traced []*repResult, out map[string]metric, samples map[string]int) {
	per := map[string][]float64{}
	for _, r := range traced {
		for name, v := range r.Layers {
			per[name] = append(per[name], v)
		}
		for name, n := range r.Samples {
			if old, ok := samples[name]; !ok || n < old {
				samples[name] = n
			}
		}
	}
	var plainWall, tracedWall []float64
	for _, r := range plain {
		for name, v := range r.Runtime {
			per[name] = append(per[name], v)
		}
		plainWall = append(plainWall, r.WallS)
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.WallS)
	}
	per["trace.overhead_frac"] = []float64{median(tracedWall)/median(plainWall) - 1}
	for name, unit := range layerUnits {
		out[name] = metric{Value: median(per[name]), Unit: unit}
		if _, ok := samples[name]; !ok {
			samples[name] = len(per[name])
		}
	}
}

// layerUnits are the per-layer metrics and their units; README.md
// gives the layer → end-to-end map.
var layerUnits = map[string]string{
	"study.template_s":         "s",
	"study.world_build_s":      "s",
	"study.world_mb":           "MB",
	"study.shard_skew":         "ratio",
	"study.sink_append_us_p50": "us",
	"study.sink_append_us_p99": "us",
	"study.sink_flush_s":       "s",
	"study.checkpoint_s":       "s",
	"study.checkpoint_fsync_s": "s",
	"study.checkpoints":        "count",
	"study.checkpoint_bytes":   "bytes",

	"core.probe_us_p50":        "us",
	"core.probe_us_p99":        "us",
	"core.exchange_us_p50":     "us",
	"core.exchange_us_p99":     "us",
	"core.exchanges_per_probe": "count",
	"core.exchange_fail_frac":  "ratio",
	"core.retries_per_probe":   "count",

	"netsim.hops_per_exchange":     "count",
	"netsim.route_cache_hit_frac":  "ratio",
	"netsim.fault_drops_per_probe": "count",
	"netsim.nat_peak_entries":      "count",

	"dnsserver.forwarder_cache_hit_frac":     "ratio",
	"dnsserver.upstream_per_forwarder_query": "count",

	"dnswire.unpack_ns":     "ns",
	"dnswire.unpack_allocs": "count",
	"dnswire.pack_ns":       "ns",
	"dnswire.pack_allocs":   "count",

	"analysis.fold_ns_p50": "ns",
	"analysis.render_ms":   "ms",
	"analysis.state_bytes": "bytes",

	"runtime.gc_cpu_frac":           "ratio",
	"runtime.allocs_per_probe":      "count",
	"runtime.alloc_bytes_per_probe": "bytes",
	"runtime.sched_latency_p99_us":  "us",

	"trace.overhead_frac":             "ratio",
	"trace.self_s.setup":              "s",
	"trace.self_s.probe":              "s",
	"trace.self_s.exchange":           "s",
	"trace.self_s.fold":               "s",
	"trace.self_s.sink_append":        "s",
	"trace.self_s.sink_flush":         "s",
	"trace.self_s.checkpoint":         "s",
	"trace.self_s.checkpoint_marshal": "s",
	"trace.self_s.checkpoint_io":      "s",
	"trace.self_s.checkpoint_fsync":   "s",
	"trace.self_s.render":             "s",
	"trace.self_s.check":              "s",
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64{}, v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// env is the record printed with every result set.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Probes     int    `json:"probes"`
	Grid       string `json:"workers_x_lanes"`
}

func environment(w workload, seed int64) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Workload:   w.name,
		Seed:       seed,
		Probes:     w.spec(seed).TotalProbes,
		Grid:       fmt.Sprintf("%dx1", w.workers),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
