package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/study"
)

// measureBuild times the study layer's set-up calls on their own,
// before the engine run: the template, one shard's world over it, and
// the live heap the pair holds.
func measureBuild(w workload, spec study.Spec, res *repResult) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	t0 := time.Now()
	tpl := study.NewWorldTemplate(spec)
	t1 := time.Now()
	if w.workers > 1 {
		// As the engines do: split the cores between concurrent builds.
		tpl.BuildWorkers = max(1, runtime.GOMAXPROCS(0)/w.workers)
		spec = spec.Shard(0, w.workers)
	}
	world := tpl.Build(spec)
	t2 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(world)
	runtime.KeepAlive(tpl)
	res.Layers["study.template_s"] = t1.Sub(t0).Seconds()
	res.Layers["study.world_build_s"] = t2.Sub(t1).Seconds()
	res.Layers["study.world_mb"] = (float64(ms.HeapAlloc) - float64(before)) / 1e6
	runtime.GC()
}

// finish turns a traced repetition's spans and the run's own counters
// into the per-layer figures.
func (tr *tracer) finish(res *repResult, acc *analysis.Accumulator, snap *study.Snapshot, first, shardNs []int64, setupEnd, sweepEnd, renderEnd, wallEnd int64) {
	L, S := res.Layers, res.Samples
	var (
		self, total, count [numKinds]int64
		durs               [numKinds][]int64
		exchanges, fails   int64
		ckptBytes          int64
		responses          []*dnswire.Message
		spans              []span
	)
	for _, l := range tr.lanes {
		for k := spanKind(0); k < numKinds; k++ {
			self[k] += l.self[k]
			total[k] += l.total[k]
			count[k] += l.count[k]
			durs[k] = append(durs[k], l.durs[k]...)
		}
		exchanges += l.exchanges
		fails += l.exchangeFails
		ckptBytes += l.ckptBytes
		responses = append(responses, l.responses...)
		spans = append(spans, l.spans...)
	}
	// The main timeline's phases have no children of their own.
	self[kindSetup] += setupEnd
	self[kindRender] += renderEnd - sweepEnd
	self[kindCheck] += wallEnd - renderEnd
	for _, k := range selfKinds {
		L["trace.self_s."+kindNames[k]] = seconds(self[k])
	}

	if tr.spansPath != "" {
		spans = append(spans, mainSpans(first, tr.shardEnd, setupEnd, sweepEnd, renderEnd, wallEnd)...)
		if err := writeSpans(tr.spansPath, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}

	// study
	var worst, sum float64
	for _, ns := range shardNs {
		worst = math.Max(worst, float64(ns))
		sum += float64(ns)
	}
	L["study.shard_skew"] = ratio(worst, sum/float64(len(shardNs)))
	pct(L, S, "study.sink_append_us", durs[kindSinkAppend], 1e3, 50, 99)
	L["study.sink_flush_s"] = seconds(total[kindSinkFlush])
	L["study.checkpoint_s"] = seconds(total[kindCheckpoint])
	L["study.checkpoint_fsync_s"] = seconds(total[kindCkptFsync])
	L["study.checkpoints"] = float64(count[kindCheckpoint])
	L["study.checkpoint_bytes"] = ratio(float64(ckptBytes), float64(count[kindCheckpoint]))

	// core
	probes := float64(count[kindProbe])
	pct(L, S, "core.probe_us", durs[kindProbe], 1e3, 50, 99)
	pct(L, S, "core.exchange_us", durs[kindExchange], 1e3, 50, 99)
	L["core.exchanges_per_probe"] = ratio(float64(exchanges), probes)
	L["core.exchange_fail_frac"] = ratio(float64(fails), float64(exchanges))
	measured := float64(metricValue(snap, "study.probes_measured"))
	L["core.retries_per_probe"] = ratio(float64(metricValue(snap, "core.retries")), measured)

	// netsim
	L["netsim.hops_per_exchange"] = ratio(float64(metricValue(snap, "netsim.client_hops_forwarded")), float64(exchanges))
	L["netsim.route_cache_hit_frac"] = ratio(float64(metricValue(snap, "netsim.route_cache_hits")), float64(metricValue(snap, "netsim.route_lookups")))
	drops := metricValue(snap, "netsim.fault_burst_loss_drops") + metricValue(snap, "netsim.fault_rate_limited_drops")
	L["netsim.fault_drops_per_probe"] = ratio(float64(drops), measured)
	L["netsim.nat_peak_entries"] = float64(metricValue(snap, "netsim.nat_table_peak_entries"))

	// dnsserver
	fq := float64(metricValue(snap, "dnsserver.forwarder_queries"))
	L["dnsserver.forwarder_cache_hit_frac"] = ratio(float64(metricValue(snap, "dnsserver.forwarder_cache_hits")), fq)
	L["dnsserver.upstream_per_forwarder_query"] = ratio(float64(metricValue(snap, "dnsserver.forwarder_upstream")), fq)

	// analysis
	pct(L, S, "analysis.fold_ns", durs[kindFold], 1, 50)
	L["analysis.render_ms"] = float64(renderEnd-sweepEnd) / 1e6
	if state, err := acc.MarshalState(); err == nil {
		L["analysis.state_bytes"] = float64(len(state))
	}

	// dnswire, replayed after the run so it cannot disturb it
	replayWire(L, S, responses)
}

// replayWire times dnswire.Unpack and Message.PackTo over the sampled
// responses, ~200ms each, and counts heap allocations per call.
func replayWire(L map[string]float64, S map[string]int, msgs []*dnswire.Message) {
	wire := make([][]byte, 0, len(msgs))
	kept := msgs[:0:0]
	for _, m := range msgs {
		if b, err := m.Pack(); err == nil {
			wire = append(wire, b)
			kept = append(kept, m)
		}
	}
	for _, name := range []string{"dnswire.unpack_ns", "dnswire.unpack_allocs", "dnswire.pack_ns", "dnswire.pack_allocs"} {
		S[name] = len(wire)
	}
	if len(wire) == 0 {
		L["dnswire.unpack_ns"], L["dnswire.unpack_allocs"] = 0, 0
		L["dnswire.pack_ns"], L["dnswire.pack_allocs"] = 0, 0
		return
	}
	L["dnswire.unpack_ns"], L["dnswire.unpack_allocs"] = perCall(len(wire), func(i int) {
		wireSink, _ = dnswire.Unpack(wire[i])
	})
	buf := make([]byte, 0, 4096)
	L["dnswire.pack_ns"], L["dnswire.pack_allocs"] = perCall(len(kept), func(i int) {
		buf, _ = kept[i].PackTo(buf[:0])
	})
}

// wireSink keeps replayed Unpack results reachable.
var wireSink *dnswire.Message

// perCall runs f over 0..n-1 in rounds for at least 200ms and returns
// nanoseconds and heap allocations per call.
func perCall(n int, f func(i int)) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	calls := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(ms.Mallocs-mallocs) / float64(calls)
}

// runtimeFigures reads the Go runtime's own accounting for the whole
// process so far.
func runtimeFigures(probes int) map[string]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	out := map[string]float64{
		"runtime.gc_cpu_frac":           ratio(samples[0].Value.Float64(), samples[1].Value.Float64()),
		"runtime.allocs_per_probe":      ratio(float64(samples[2].Value.Uint64()), float64(probes)),
		"runtime.alloc_bytes_per_probe": ratio(float64(samples[3].Value.Uint64()), float64(probes)),
		"runtime.sched_latency_p99_us":  histQuantile(samples[4].Value.Float64Histogram(), 0.99) * 1e6,
	}
	return out
}

// histQuantile is the upper bucket bound at quantile q of a runtime
// histogram (the lower bound when the upper one is +Inf).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// pct stores name_pNN for each quantile of durs (nanoseconds divided
// by unit), and the sample count behind it.
func pct(L map[string]float64, S map[string]int, name string, durs []int64, unit float64, quantiles ...int) {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	for _, q := range quantiles {
		key := name + "_p" + strconv.Itoa(q)
		S[key] = len(durs)
		if len(durs) == 0 {
			L[key] = 0
			continue
		}
		// Nearest rank.
		i := int(math.Ceil(float64(q)/100*float64(len(durs)))) - 1
		L[key] = float64(durs[max(i, 0)]) / unit
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
