package study

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/dnswatch/dnsloc/internal/metrics"
)

// EngineOptions configure a sharded study run.
type EngineOptions struct {
	// Workers is the shard count; <= 0 means GOMAXPROCS.
	Workers int
	// Lanes is the per-shard lane count: each shard's owned probes are
	// split into Lanes contiguous windows, each simulated end-to-end by
	// its own world over the template's shared immutable core. <= 0
	// means auto — the cores left over after the shard fan-out
	// (GOMAXPROCS/workers, at least 1); 1 pins the pre-lane behavior.
	Lanes int
	// Progress, when non-nil, receives one call per completed shard.
	// Calls are serialized but arrive in completion order, not shard
	// order.
	Progress func(shard, workers, probes int, elapsed time.Duration)
}

// resolveLanes picks the per-shard lane count, clamped so every lane
// window is nonempty.
func resolveLanes(lanes, workers, totalProbes int) int {
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0) / workers
	}
	if totalProbes > 0 {
		if per := totalProbes / workers; lanes > per {
			lanes = per
		}
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// RunSharded executes the pilot study across Workers independent shards,
// each owning a round-robin slice of the probe fleet.
//
// Determinism contract: every shard builds its own world replica from
// Spec.Shard(k, K) — the same quotas, seat dealing, and RNG streams as
// the unsharded build, with only its own probes' homes instantiated —
// and its sweep draws the full fleet's platform availability stream in
// probe-ID order, so no RNG call ever crosses a goroutine. Workers share no mutable state;
// the only synchronization is the final merge, which reassembles records
// in probe-ID order. Every table and figure rendered from the merged
// results is therefore byte-identical at any worker count, and identical
// to the serial Run. (Per-response virtual-clock RTTs are the one field
// that may differ between worker counts: resolver cache warmth depends
// on which probes share a world. No aggregate consumes RTTs — the
// metrics plane quarantines them as Diagnostic, outside the
// deterministic snapshot.)
//
// Metrics contract: each shard world carries its own registry; after
// the merge the registries fold into Results.Metrics in shard order.
// Counter adds, gauge maxes, and histogram bucket adds are commutative,
// so the merged Stable snapshot is byte-identical at any worker count.
func RunSharded(spec Spec, opts EngineOptions) *Results {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.TotalProbes > 0 && workers > spec.TotalProbes {
		workers = spec.TotalProbes
	}
	lanes := resolveLanes(opts.Lanes, workers, spec.TotalProbes)
	if workers == 1 && lanes == 1 {
		// The serial path: one world, no stubs, no merge.
		start := time.Now()
		res := Run(BuildWorld(spec))
		if opts.Progress != nil {
			opts.Progress(0, 1, len(res.Records), time.Since(start))
		}
		return res
	}

	// One template backs every shard and lane world: the signed zones,
	// org roster, dealt seats, packed CHAOS answers, and — after the
	// first build seals them — the backbone routers' forwarding tables
	// are immutable, so the goroutines below only read it (the
	// happens-before edge is goroutine creation). Shard and lane builds
	// already run concurrently, so each gets its share of the machine
	// for its own parallel org population.
	tpl := NewWorldTemplate(spec)
	if bw := runtime.GOMAXPROCS(0) / (workers * lanes); bw > 1 {
		tpl.BuildWorkers = bw
	} else {
		tpl.BuildWorkers = 1
	}

	// One unit per (shard, lane): unit k*lanes+l owns the l-th
	// contiguous window of shard k's probe ranks.
	units := workers * lanes
	unitRecs := make([][]*ProbeRecord, units)
	unitRegs := make([]*metrics.Registry, units)
	unitErrs := make([]string, units)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			start := time.Now()
			var lwg sync.WaitGroup
			for l := 0; l < lanes; l++ {
				lwg.Add(1)
				go func(l int) {
					defer lwg.Done()
					u := k*lanes + l
					// Per-probe panics are quarantined inside runRecords;
					// this recover is the outer belt, so a lane whose world
					// *build* blows up costs that lane's records, not the
					// whole run.
					defer func() {
						if r := recover(); r != nil {
							if lanes == 1 {
								unitErrs[u] = fmt.Sprintf("shard %d/%d panicked: %v", k, workers, r)
							} else {
								unitErrs[u] = fmt.Sprintf("shard %d/%d lane %d/%d panicked: %v", k, workers, l, lanes, r)
							}
						}
					}()
					world := tpl.Build(spec.Shard(k, workers).Lane(l, lanes))
					unitRecs[u] = runRecords(world)
					unitRegs[u] = world.Metrics
				}(l)
			}
			lwg.Wait()
			if opts.Progress != nil {
				n := 0
				for l := 0; l < lanes; l++ {
					n += len(unitRecs[k*lanes+l])
				}
				progressMu.Lock()
				opts.Progress(k, workers, n, time.Since(start))
				progressMu.Unlock()
			}
		}(k)
	}
	wg.Wait()

	total := 0
	for _, recs := range unitRecs {
		total += len(recs)
	}
	merged := make([]*ProbeRecord, 0, total)
	for _, recs := range unitRecs {
		merged = append(merged, recs...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Probe.ID < merged[j].Probe.ID })

	var errs []string
	for _, e := range unitErrs {
		if e != "" {
			errs = append(errs, e)
		}
	}

	// Fold the lane registries in (shard, lane) order; every merge op is
	// commutative, so the result is independent of completion order.
	var reg *metrics.Registry
	if !spec.DisableMetrics {
		reg = metrics.New()
		for _, r := range unitRegs {
			reg.Merge(r)
		}
	}

	// The merged view carries the unsharded spec for exports; per-record
	// simulation state lives on each record's Net.
	return &Results{World: &World{Spec: spec}, Records: merged, Errors: errs, Metrics: reg}
}
