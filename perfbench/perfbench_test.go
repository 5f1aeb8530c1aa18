package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"strings"
	"testing"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/study"
)

// tiny shrinks a workload to a few hundred probes, checkpointing often
// enough that the periodic checkpoints still run.
func tiny(w workload) workload {
	w.scale = 0.05
	if w.stream {
		w.checkpointEvery = 50
	}
	return w
}

func mustRep(t *testing.T, w workload, o repOptions) *repResult {
	t.Helper()
	if o.dir == "" {
		o.dir = t.TempDir()
	}
	r, err := runRep(w, w.spec(7), o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r
}

// benchmarkJSON is the benchmark's definition at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONNamesEveryWorkloadAndMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	sameUnits := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, emitted %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	sameUnits("end_to_end", bj.EndToEnd, endToEndUnits)
	sameUnits("per_layer", bj.PerLayer, layerUnits)
}

// Every workload runs at a tiny scale, passes its output check traced
// and untraced with the same digest, and emits every named metric.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			plain := mustRep(t, w, repOptions{})
			traced := mustRep(t, w, repOptions{traced: true})
			for _, r := range []*repResult{plain, traced} {
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("traced=%v: check failed (%d failed): %v", r.Traced, r.Failed, r.Problems)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("traced digest %s differs from untraced %s", traced.Digest, plain.Digest)
			}

			e2e, layers := map[string]metric{}, map[string]metric{}
			endToEndMetrics([]*repResult{plain}, e2e, map[string]int{})
			layerMetrics([]*repResult{plain}, []*repResult{traced}, layers, map[string]int{})
			for _, m := range bj.EndToEnd {
				if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v", m.Name, got)
				}
			}
			for _, m := range bj.PerLayer {
				if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v", m.Name, got)
				}
			}
			if e2e["wall_s"].Value <= 0 || e2e["probes_per_s"].Value <= 0 || e2e["ok_frac"].Value != 1 {
				t.Errorf("implausible end-to-end figures: %+v", e2e)
			}
			if plain.WallS > plain.RawWallS || plain.StealFrac < 0 || plain.StealFrac >= 1 {
				t.Errorf("steal correction: wall %v, raw %v, steal %v", plain.WallS, plain.RawWallS, plain.StealFrac)
			}
			if layers["core.exchanges_per_probe"].Value <= 0 || layers["dnswire.unpack_ns"].Value <= 0 {
				t.Errorf("implausible per-layer figures: %+v", layers)
			}
			if w.stream && (layers["study.checkpoints"].Value < 4 || layers["study.sink_append_us_p50"].Value <= 0) {
				t.Errorf("streamed workload traced no checkpoints or sink appends: %+v", layers)
			}
		})
	}
}

func TestCheckRejectsWrongDigest(t *testing.T) {
	w := tiny(workloads[0])
	good := mustRep(t, w, repOptions{})
	if !good.Correct {
		t.Fatalf("check failed: %v", good.Problems)
	}
	if r := mustRep(t, w, repOptions{want: good.Digest}); !r.Correct {
		t.Errorf("matching reference digest rejected: %v", r.Problems)
	}
	bad := mustRep(t, w, repOptions{want: strings.Repeat("0", 64)})
	if bad.Correct || bad.Failed != bad.Probes || !strings.Contains(strings.Join(bad.Problems, ";"), "digest") {
		t.Errorf("wrong digest accepted: correct=%v failed=%d problems=%v", bad.Correct, bad.Failed, bad.Problems)
	}
}

// inMemory runs a workload's spec through the in-memory engine and
// folds it, as runRep does.
func inMemory(w workload) (study.Spec, *analysis.Accumulator, *study.Results) {
	spec := w.spec(7)
	res := study.RunSharded(spec, study.EngineOptions{Workers: 1, Lanes: 1})
	acc := analysis.NewAccumulator()
	for _, rec := range res.Records {
		acc.Fold(rec)
	}
	return spec, acc, res
}

// outcomeOf is the in-memory outcome check sees for a finished run.
func outcomeOf(acc *analysis.Accumulator, res *study.Results) outcome {
	return outcome{acc: acc, snap: res.MetricsSnapshot(true), folded: len(res.Records), rows: -1, clearedMisses: clearedMisses(res.Records)}
}

func TestCheckRejectsForgedFalsePositive(t *testing.T) {
	for _, w := range []workload{tiny(workloads[0]), tiny(workloads[2])} {
		spec, acc, res := inMemory(w)
		oc := outcomeOf(acc, res)
		if p := check(w, spec, oc, ""); len(p) != 0 {
			t.Fatalf("%s: genuine output rejected: %v", w.name, p)
		}
		acc.Score.FalsePositives++
		if p := check(w, spec, oc, ""); len(p) == 0 {
			t.Errorf("%s: forged CHAOS false positive accepted", w.name)
		}
		acc.Score.FalsePositives--
		acc.FusedScore.FalsePositives++
		if p := check(w, spec, oc, ""); w.hostile && len(p) == 0 {
			t.Errorf("%s: forged fused false positive accepted", w.name)
		}
	}
}

// A fused miss passes only when the intercepted targets' signals were
// all starved; a miss with a target that fused clear is rejected.
func TestCheckRejectsClearedMiss(t *testing.T) {
	w := tiny(workloads[2])
	spec, acc, res := inMemory(w)
	var rec *study.ProbeRecord
	for _, r := range res.Records {
		if r.Report != nil && len(r.Probe.Truth.PatternV4) > 0 && r.Report.FusedIntercepted() {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatal("no fused-flagged probe with IPv4 interception")
	}
	if n := clearedMisses(res.Records); n != 0 {
		t.Fatalf("genuine run has %d cleared misses", n)
	}
	// Forge the report into a miss: no flagged target, every intercepted
	// IPv4 target fused clear.
	forged := *rec.Report
	forged.FusedInterceptedV4, forged.FusedInterceptedV6 = nil, nil
	forged.Signals = nil
	for _, id := range rec.Probe.Truth.PatternV4 {
		forged.Signals = append(forged.Signals, core.SignalFusion{Resolver: id, Family: core.V4, Fused: core.SignalClear})
	}
	saved := rec.Report
	rec.Report = &forged
	oc := outcomeOf(acc, res)
	rec.Report = saved
	if oc.clearedMisses != 1 {
		t.Fatalf("forged miss counted %d times, want 1", oc.clearedMisses)
	}
	if p := check(w, spec, oc, ""); len(p) == 0 {
		t.Error("a fused miss on clear evidence was accepted")
	}
}

func TestCheckRejectsLostRows(t *testing.T) {
	w := tiny(workloads[0])
	spec, acc, res := inMemory(w)
	oc := outcomeOf(acc, res)
	oc.rows = oc.folded - 1
	if p := check(w, spec, oc, ""); len(p) == 0 {
		t.Error("a sink one row short was accepted")
	}
}

// plainClient implements core.Client but not core.RTTExchanger.
type plainClient struct{}

func (plainClient) Exchange(netip.AddrPort, *dnswire.Message) ([]*dnswire.Message, error) {
	return nil, core.ErrTimeout
}

func TestTracedClientForwardsRTTExchanger(t *testing.T) {
	tr := newTracer(1, func() int64 { return 0 }, "")
	if _, ok := tr.wrap(plainClient{}, 16, 0, 0).(core.RTTExchanger); ok {
		t.Error("wrapper of a plain client claims ExchangeRTT")
	}
	if _, ok := tr.wrap(&core.SimClient{}, 32, 0, 0).(core.RTTExchanger); !ok {
		t.Error("wrapper of an RTT client hides ExchangeRTT")
	}
}

// The forwarding wrapper leaves the Stable snapshot byte-identical,
// on the clean world and on the hostile one (encrypted clients,
// retries, drift rounds).
func TestTracedWrapperKeepsStableSnapshot(t *testing.T) {
	for _, w := range []workload{tiny(workloads[0]), tiny(workloads[2])} {
		spec := w.spec(7)
		want := study.RunSharded(spec, study.EngineOptions{Workers: 1, Lanes: 1}).MetricsSnapshot(false).JSON()

		tr := newTracer(1, func() int64 { return 0 }, "")
		spec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client { return tr.wrap(c, p.ID, 0, 0) }
		got := study.RunSharded(spec, study.EngineOptions{Workers: 1, Lanes: 1}).MetricsSnapshot(false).JSON()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced Stable snapshot differs:\n%s\nwant:\n%s", w.name, got, want)
		}
		if tr.lanes[0].exchanges == 0 {
			t.Errorf("%s: wrapper saw no exchanges", w.name)
		}
	}
}

// Stolen time comes out of an elapsed time in proportion to the busy
// CPU time it displaced; without steal the elapsed time is kept.
func TestUnstolen(t *testing.T) {
	for _, c := range []struct {
		a, b cpuTicks
		want int64
	}{
		{cpuTicks{busy: 100, steal: 5}, cpuTicks{busy: 190, steal: 15}, 900},
		{cpuTicks{busy: 100, steal: 5}, cpuTicks{busy: 190, steal: 5}, 1000},
		{cpuTicks{}, cpuTicks{}, 1000},
		{cpuTicks{busy: 100, steal: 5}, cpuTicks{busy: 100, steal: 9}, 1000},
	} {
		if got := unstolen(1000, c.a, c.b); got != c.want {
			t.Errorf("unstolen(1000, %+v, %+v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if r := readTicks(); r.busy < 0 || r.steal < 0 {
		t.Errorf("readTicks() = %+v", r)
	}
}

// The calibration loop takes thread CPU time that is neither zero nor
// wildly off the reference box's.
func TestCalibrate(t *testing.T) {
	ns := calibrate()
	if ns <= 0 || float64(ns) > 20*referenceLoopNs || float64(ns) < referenceLoopNs/20 {
		t.Errorf("calibrate() = %d ns, reference %g ns", ns, referenceLoopNs)
	}
}
