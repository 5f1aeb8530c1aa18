package study

import (
	"runtime"
	"testing"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
)

// homesSpec is small enough to sweep many times, large enough that a
// shard owns dead or offline probes as well as measured ones.
func homesSpec() Spec { return PaperSpec().Scale(0.0128) } // ~128 probes

// homesLivePeak reads the study.homes_live_peak gauge from a registry
// snapshot.
func homesLivePeak(t *testing.T, snap *Snapshot) int64 {
	t.Helper()
	for _, m := range snap.Metrics {
		if m.Name == "study.homes_live_peak" {
			return m.Value
		}
	}
	t.Fatal("study.homes_live_peak not in snapshot")
	return 0
}

// sweepPlanned runs the streamed sweep over a planned-only world,
// checking at every yield that the probe's home is already detached,
// and reports for each yielded record whether it was measured.
func sweepPlanned(t *testing.T, w *World, skip int) (measured []bool) {
	t.Helper()
	streamRecords(w, skip, func(rec *ProbeRecord) bool {
		if w.homesLive != 0 || rec.Probe.Host != nil {
			t.Errorf("probe %d yielded with %d homes live (host detached: %v)",
				rec.Probe.ID, w.homesLive, rec.Probe.Host == nil)
		}
		measured = append(measured, rec.Report != nil || rec.Err != "")
		return true
	})
	for _, p := range w.Platform.Probes() {
		if p.Host != nil {
			t.Errorf("probe %d still holds its host after the sweep", p.ID)
		}
	}
	return measured
}

func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// TestStreamHoldsOneHomePerLane pins the streamed pipeline's home
// lifecycle: a streamed world builds each home just before measuring
// it and detaches it before the record leaves, so it never holds more
// than one; dead, offline and checkpoint-skipped probes never get one;
// a quarantined measurement still detaches; and the eager in-memory
// world holds every owned home at once.
func TestStreamHoldsOneHomePerLane(t *testing.T) {
	spec := homesSpec()
	tpl := NewWorldTemplate(spec)

	t.Run("streamed runs", func(t *testing.T) {
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 3}} {
			res, err := RunStreamed(spec, StreamOptions{
				Workers:        grid[0],
				Lanes:          grid[1],
				NewAccumulator: func(int) Accumulator { return &ckAcc{} },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := homesLivePeak(t, res.MetricsSnapshot(true)); got != 1 {
				t.Errorf("%dx%d: homes_live_peak = %d, want 1", grid[0], grid[1], got)
			}
		}
	})

	t.Run("only measured probes build", func(t *testing.T) {
		w := tpl.buildPlanned(spec.Shard(1, 2))
		measured := countTrue(sweepPlanned(t, w, 0))
		if w.homesBuilt != measured {
			t.Errorf("built %d homes for %d measured probes", w.homesBuilt, measured)
		}
		if measured == 0 || measured == len(w.homes) {
			t.Errorf("%d of %d owned probes measured; the spec must exercise both measured and dead or offline probes",
				measured, len(w.homes))
		}
	})

	t.Run("resume skips the prefix", func(t *testing.T) {
		full := sweepPlanned(t, tpl.buildPlanned(spec.Shard(0, 2)), 0)
		const skip = 20
		w := tpl.buildPlanned(spec.Shard(0, 2))
		resumed := sweepPlanned(t, w, skip)
		want := countTrue(full[skip:])
		if countTrue(resumed) != want || w.homesBuilt != want {
			t.Errorf("resume at %d: measured %d, built %d homes; want %d of each",
				skip, countTrue(resumed), w.homesBuilt, want)
		}
	})

	t.Run("quarantine detaches", func(t *testing.T) {
		qspec := spec
		qspec.ClientWrapper = func(c core.Client, p *atlas.Probe) core.Client {
			if p.ID%5 == 0 {
				panic("client exploded")
			}
			return c
		}
		w := NewWorldTemplate(qspec).buildPlanned(qspec)
		quarantined := 0
		streamRecords(w, 0, func(rec *ProbeRecord) bool {
			if rec.Err != "" {
				quarantined++
			}
			return true
		})
		if quarantined == 0 {
			t.Fatal("no probe was quarantined")
		}
		if w.homesLive != 0 {
			t.Errorf("%d homes still live after %d quarantined measurements", w.homesLive, quarantined)
		}
		for _, p := range w.Platform.Probes() {
			if p.Host != nil {
				t.Errorf("probe %d still holds its host", p.ID)
			}
		}
	})

	t.Run("in-memory holds every owned home", func(t *testing.T) {
		w := BuildWorld(spec)
		if got, want := homesLivePeak(t, w.Metrics.Snapshot(true)), int64(w.Platform.Len()); got != want {
			t.Errorf("unsharded world: homes_live_peak = %d, want %d", got, want)
		}
		shard := tpl.Build(spec.Shard(1, 3))
		owned := int64(len(shard.ownedProbes()))
		if got := homesLivePeak(t, shard.Metrics.Snapshot(true)); got != owned {
			t.Errorf("shard world: homes_live_peak = %d, want its %d owned probes", got, owned)
		}
		for _, p := range shard.ownedProbes() {
			if p.Host == nil {
				t.Fatalf("owned probe %d has no home in an eager world", p.ID)
			}
		}
		res := Run(shard)
		if got := homesLivePeak(t, res.MetricsSnapshot(true)); got != owned {
			t.Errorf("after the sweep: homes_live_peak = %d, want %d", got, owned)
		}
		for _, rec := range res.Records {
			if rec.Probe.Host == nil {
				t.Fatalf("in-memory record of probe %d lost its host", rec.Probe.ID)
			}
		}
	})
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamWorldHeapPerProbe bounds what a streamed shard world keeps
// per fleet probe: the slope of its live heap between two fleet sizes
// must stay within 1 KB per probe. The roster entry, the availability
// class and the home plan are all a planned world may hold per probe;
// building every owned home up front costs about 2.5 KB.
func TestStreamWorldHeapPerProbe(t *testing.T) {
	worldHeap := func(scale float64) (probes int, bytes float64) {
		spec := PaperSpec().Scale(scale)
		tpl := NewWorldTemplate(spec)
		// The template's first build records the shared routing core;
		// measure a later one, as every other shard world is.
		tpl.buildPlanned(spec.Shard(0, 2))
		before := liveHeap()
		w := tpl.buildPlanned(spec.Shard(1, 2))
		after := liveHeap()
		runtime.KeepAlive(w)
		runtime.KeepAlive(tpl)
		return spec.TotalProbes, float64(after) - float64(before)
	}
	n1, b1 := worldHeap(0.5)
	n2, b2 := worldHeap(2)
	slope := (b2 - b1) / float64(n2-n1)
	t.Logf("streamed shard world: %.1f MB at %d probes, %.1f MB at %d probes, %.0f B per fleet probe",
		b1/1e6, n1, b2/1e6, n2, slope)
	if slope > 1024 {
		t.Errorf("streamed shard world keeps %.0f B per fleet probe, want <= 1024", slope)
	}
}
