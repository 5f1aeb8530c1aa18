package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/faultfs"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// repResult is one repetition of a workload, measured in its own
// process and handed to the parent as one JSON line.
type repResult struct {
	Traced bool `json:"traced"`

	Probes   int      `json:"probes"`
	Failed   int      `json:"failed"`
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	Digest   string   `json:"digest"`

	// SetupS, SweepS and WallS are elapsed times without the share
	// the hypervisor stole (see unstolen), in seconds of the reference
	// box (see Slowdown). RawWallS is WallS as the clock read it, and
	// StealFrac the share stolen over the run.
	SetupS    float64 `json:"setup_s"`
	SweepS    float64 `json:"sweep_s"`
	WallS     float64 `json:"wall_s"`
	RawWallS  float64 `json:"raw_wall_s"`
	StealFrac float64 `json:"steal_frac"`
	// Slowdown is the calibration loop's thread CPU time around the
	// repetition over its time on the reference box; the time metrics
	// are divided by it.
	Slowdown float64 `json:"slowdown"`
	// CalibrationCPUS is the CPU time of the calibration loops.
	CalibrationCPUS float64 `json:"calibration_cpu_s"`
	PeakRSSMB       float64 `json:"peak_rss_mb"`
	// CPUS is the process's user+sys CPU without the calibration
	// loops, in seconds of the reference box, filled in by the parent
	// from the child's exit status.
	CPUS float64 `json:"cpu_s"`

	// Runtime holds the runtime/metrics figures (every repetition).
	Runtime map[string]float64 `json:"runtime"`
	// Layers and Samples are the per-layer figures and the observation
	// count behind each percentile (traced repetitions only).
	Layers  map[string]float64 `json:"layers,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
}

// repOptions configure one repetition.
type repOptions struct {
	// dir receives the streamed workload's sinks and checkpoints.
	dir string
	// want is the reference digest for this (workload, seed), or ""
	// when none is kept.
	want string
	// traced installs the layer hooks and fills repResult.Layers.
	traced bool
	// spans is where a traced repetition writes its kept spans; ""
	// keeps them in memory only.
	spans string
}

// runRep runs one repetition of w in this process: the engine call,
// the fold, rendering and the output check.
func runRep(w workload, spec study.Spec, o repOptions) (*repResult, error) {
	res := &repResult{Traced: o.traced, Probes: spec.TotalProbes}
	if o.traced {
		res.Layers = map[string]float64{}
		res.Samples = map[string]int{}
		measureBuild(w, spec, res)
	}

	// first[k] is when shard k's first probe reached the detector,
	// in ns since start plus one (zero means not yet), and
	// firstTicks[k] the CPU counters read just before it was stored.
	first := make([]atomic.Int64, w.workers)
	firstTicks := make([]cpuTicks, w.workers)
	startTicks := readTicks()
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	var tr *tracer
	if o.traced {
		tr = newTracer(w.workers, since, o.spans)
	}
	spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
		k := p.ID % w.workers
		now := since()
		if first[k].Load() == 0 {
			firstTicks[k] = readTicks()
			first[k].Store(now + 1)
		}
		if tr != nil {
			return tr.wrap(c, p.ID, k, now)
		}
		return c
	}
	shardNs := make([]int64, w.workers)
	progress := func(shard, _, _ int, elapsed time.Duration) {
		shardNs[shard] = int64(elapsed)
		if tr != nil {
			tr.shardDone(shard, since())
		}
	}

	oc := outcome{rows: -1}
	var stable *study.Snapshot
	if w.stream {
		opts := study.StreamOptions{
			Workers:         w.workers,
			Lanes:           1,
			Progress:        progress,
			NewAccumulator:  func(int) study.Accumulator { return analysis.NewAccumulator() },
			NewSink:         jsonlSinks(o.dir),
			CheckpointDir:   filepath.Join(o.dir, "checkpoints"),
			CheckpointEvery: w.checkpointEvery,
		}
		if tr != nil {
			opts.NewAccumulator = tr.newAccumulator
			opts.NewSink = tr.wrapSinks(opts.NewSink)
			opts.FS = tr.wrapFS(faultfs.OS{})
		}
		out, err := study.RunStreamed(spec, opts)
		if err != nil {
			return nil, fmt.Errorf("streamed run: %w", err)
		}
		oc.acc = unwrapAccumulator(out.Acc)
		oc.snap, stable = out.MetricsSnapshot(true), out.MetricsSnapshot(false)
		oc.errs, oc.folded = out.Errors, out.Folded
	} else {
		out := study.RunSharded(spec, study.EngineOptions{Workers: w.workers, Lanes: 1, Progress: progress})
		oc.acc = analysis.NewAccumulator()
		for _, rec := range out.Records {
			if tr != nil {
				tr.foldMain(oc.acc, rec)
			} else {
				oc.acc.Fold(rec)
			}
		}
		oc.snap, stable = out.MetricsSnapshot(true), out.MetricsSnapshot(false)
		oc.errs, oc.folded = out.Errors, len(out.Records)
		oc.clearedMisses = clearedMisses(out.Records)
	}
	sweepEnd := since()
	sweepTicks := readTicks()

	text := render(oc.acc, stable)
	renderEnd := since()
	if w.stream {
		n, err := countRows(o.dir)
		if err != nil {
			return nil, err
		}
		oc.rows = n
	}
	sum := sha256.Sum256([]byte(text))
	oc.digest = hex.EncodeToString(sum[:])
	res.Digest = oc.digest
	res.Problems = check(w, spec, oc, o.want)
	wallEnd := since()
	wallTicks := readTicks()

	setupEnd := int64(0)
	setupTicks := sweepTicks
	starts := make([]int64, w.workers)
	for k := range first {
		starts[k] = first[k].Load() - 1
		if starts[k] < 0 {
			starts[k] = shardNs[k] // a shard that measured nothing
		} else if starts[k] >= setupEnd {
			setupTicks = firstTicks[k]
		}
		setupEnd = max(setupEnd, starts[k])
	}
	setup := unstolen(setupEnd, startTicks, setupTicks)
	sweep := unstolen(sweepEnd-setupEnd, setupTicks, sweepTicks)
	tail := unstolen(wallEnd-sweepEnd, sweepTicks, wallTicks)
	res.SetupS = seconds(setup)
	res.SweepS = seconds(sweep)
	res.WallS = seconds(setup + sweep + tail)
	res.RawWallS = seconds(wallEnd)
	res.StealFrac = 1 - float64(unstolen(wallEnd, startTicks, wallTicks))/float64(wallEnd)

	res.Correct = len(res.Problems) == 0
	res.Failed = int(metricValue(oc.snap, "study.quarantined")) + max(spec.TotalProbes-oc.acc.Folded, 0)
	if !res.Correct {
		res.Failed = spec.TotalProbes
	}
	res.Runtime = runtimeFigures(spec.TotalProbes)
	if tr != nil {
		tr.finish(res, oc.acc, oc.snap, starts, shardNs, setupEnd, sweepEnd, renderEnd, wallEnd)
	}
	return res, nil
}

// jsonlSinks opens shard k's JSONL file under dir, the way the CLI's
// -records flag does for a fresh run.
func jsonlSinks(dir string) func(k, workers, resumedAt int) (study.RecordSink, error) {
	return func(k, workers, _ int) (study.RecordSink, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("records.shard%d-of-%d.jsonl", k, workers)))
		if err != nil {
			return nil, err
		}
		return study.NewJSONLSink(f), nil
	}
}

// countRows counts the JSONL rows the shards wrote under dir.
func countRows(dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "records.shard*.jsonl"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		n += bytes.Count(b, []byte{'\n'})
	}
	return n, nil
}

// render is the output the digest covers: Tables 4 and 5, Figures 3
// and 4, both accuracy scorers, and the Stable metric snapshot.
func render(acc *analysis.Accumulator, stable *study.Snapshot) string {
	var b strings.Builder
	b.WriteString(analysis.FormatTable4(acc.Table4()))
	b.WriteString(analysis.FormatTable5(acc.Table5()))
	b.WriteString(analysis.FormatFigure3(acc.Figure3(15)))
	b.WriteString(analysis.FormatFigure4(acc.Figure4(15)))
	b.WriteString(analysis.FormatAccuracy(acc.Accuracy()))
	b.WriteString(analysis.FormatAccuracy(acc.FusedAccuracy()))
	b.Write(stable.JSON())
	return b.String()
}

// outcome is what one repetition produced, as the output check sees it.
type outcome struct {
	acc  *analysis.Accumulator
	snap *study.Snapshot // Diagnostic included
	errs []string        // contained shard failures
	// folded is the engine's record count; rows the JSONL rows the
	// sinks hold (-1 without sinks).
	folded, rows int
	// clearedMisses counts truly intercepted probes the fused scorer
	// missed although one of their intercepted targets fused clear.
	clearedMisses int
	digest        string
}

// check verifies one repetition's output and returns every problem
// found; an empty result means the output is correct.
func check(w workload, spec study.Spec, o outcome, want string) []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	for _, e := range o.errs {
		bad("shard failed: %s", e)
	}
	if want != "" && o.digest != want {
		bad("digest %s, want %s", o.digest, want)
	}
	chaos, fused := o.acc.Accuracy(), o.acc.FusedAccuracy()
	if w.hostile {
		if chaos.FalsePositives != 0 || fused.FalsePositives != 0 {
			bad("false positives: chaos %d, fused %d", chaos.FalsePositives, fused.FalsePositives)
		}
		// A fused miss is only correct when every signal on the
		// intercepted targets was starved (fault loss plus the L4
		// budget), which core scores as not-intercepted by design.
		if o.clearedMisses != 0 {
			bad("fused scorer cleared %d intercepted probes (%d fused false negatives)", o.clearedMisses, fused.FalseNegatives)
		}
	} else if chaos.FalsePositives != 0 || chaos.FalseNegatives != 0 || chaos.Mislocated != 0 {
		bad("clean world scored FP=%d FN=%d mislocated=%d", chaos.FalsePositives, chaos.FalseNegatives, chaos.Mislocated)
	}
	// study.probes_measured counts every probe whose detector ran,
	// quarantined ones included.
	probes := metricValue(o.snap, "study.probes")
	measured := metricValue(o.snap, "study.probes_measured")
	unresponsive := metricValue(o.snap, "study.probes_unresponsive")
	quarantined := metricValue(o.snap, "study.quarantined")
	if probes != int64(spec.TotalProbes) || measured+unresponsive != probes || quarantined > measured {
		bad("probe accounting: %d probes, %d measured (%d quarantined), %d unresponsive; spec has %d",
			probes, measured, quarantined, unresponsive, spec.TotalProbes)
	}
	if o.acc.Folded != spec.TotalProbes || o.folded != spec.TotalProbes {
		bad("folded %d records (engine says %d), spec has %d probes", o.acc.Folded, o.folded, spec.TotalProbes)
	}
	if o.rows >= 0 && o.rows != o.folded {
		bad("JSONL sinks hold %d rows, %d records folded", o.rows, o.folded)
	}
	return probs
}

// clearedMisses counts the truly intercepted probes that the fused
// scorer missed although at least one truly intercepted (resolver,
// family) target fused clear: a miss on evidence, not on silence.
func clearedMisses(recs []*study.ProbeRecord) int {
	n := 0
	for _, rec := range recs {
		r := rec.Report
		if r == nil || !rec.Probe.Truth.Intercepted() || r.FusedIntercepted() {
			continue
		}
		truth := map[core.Family][]publicdns.ID{core.V4: rec.Probe.Truth.PatternV4, core.V6: rec.Probe.Truth.PatternV6}
		for _, s := range r.Signals {
			if s.Fused == core.SignalClear && slices.Contains(truth[s.Family], s.Resolver) {
				n++
				break
			}
		}
	}
	return n
}

// metricValue is a counter's or gauge's value in the snapshot; 0 when
// absent.
func metricValue(s *study.Snapshot, name string) int64 {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
