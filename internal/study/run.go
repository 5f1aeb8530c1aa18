package study

import (
	"fmt"
	"time"

	"github.com/dnswatch/dnsloc/internal/atlas"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/metrics"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// ExpKey identifies one of the eight location-query experiments: one
// operator over one address family, the granularity RIPE Atlas schedules
// measurements at (and the granularity of Table 4's "Total" columns).
type ExpKey struct {
	Resolver publicdns.ID
	Family   core.Family
}

// ExpSet is a set of the eight location experiments, one slot per
// (operator, family): publicdns.All order, IPv4 then IPv6. A fixed
// array, so recording a probe's availability allocates nothing.
type ExpSet [8]bool

// expSlot returns k's slot, or -1 for a key outside the eight
// experiments.
func expSlot(k ExpKey) int {
	for i, id := range publicdns.All {
		if id != k.Resolver {
			continue
		}
		switch k.Family {
		case core.V4:
			return 2 * i
		case core.V6:
			return 2*i + 1
		}
	}
	return -1
}

// Get reports whether k is in the set.
func (s ExpSet) Get(k ExpKey) bool {
	i := expSlot(k)
	return i >= 0 && s[i]
}

// Set adds k to the set. k must be one of the eight experiments.
func (s *ExpSet) Set(k ExpKey) {
	i := expSlot(k)
	if i < 0 {
		panic(fmt.Sprintf("study: %v is not a location experiment", k))
	}
	s[i] = true
}

// ProbeRecord is one probe's contribution to the study.
type ProbeRecord struct {
	Probe *atlas.Probe
	// Report is the detector output; nil when the probe never responded
	// to the platform at all.
	Report *core.Report
	// Responded marks which location experiments the probe was online
	// for; experiments it missed do not count it in that experiment's
	// totals.
	Responded ExpSet
	// Net is the event loop the probe's host is wired into. In a sharded
	// run each record points at its own shard's network; follow-up
	// measurements (the TTL extension) must use it rather than a global
	// one.
	Net *netsim.Network
	// Err records a quarantined measurement: the probe's detector
	// panicked, the panic was contained, and the rest of the run
	// proceeded. Report is nil when Err is set.
	Err string
}

// RespondedAll4 reports whether the probe was online for all four
// operators' experiments in a family.
func (pr *ProbeRecord) RespondedAll4(f core.Family) bool {
	if pr.Report == nil {
		return false
	}
	for _, id := range publicdns.All {
		if !pr.Responded.Get(ExpKey{id, f}) {
			return false
		}
	}
	return true
}

// InterceptedFor reports whether the report flags the operator as
// intercepted in the family.
func (pr *ProbeRecord) InterceptedFor(id publicdns.ID, f core.Family) bool {
	if pr.Report == nil {
		return false
	}
	set := pr.Report.InterceptedV4
	if f == core.V6 {
		set = pr.Report.InterceptedV6
	}
	for _, got := range set {
		if got == id {
			return true
		}
	}
	return false
}

// Results is a completed study run.
type Results struct {
	World   *World
	Records []*ProbeRecord
	// Errors records shard-level failures a sharded run contained: a
	// shard whose world build panicked contributes its error here and no
	// records; the other shards' records are merged as usual.
	Errors []string
	// Metrics is the run's registry — in a sharded run, the merge of
	// every shard's registry. Nil when Spec.DisableMetrics is set.
	Metrics *metrics.Registry
}

// Run executes the pilot study: the full detection technique from every
// responding probe, with platform availability deciding which probes
// appear in which experiment's totals.
func Run(w *World) *Results {
	return &Results{World: w, Records: runRecords(w), Metrics: w.Metrics}
}

// maxAvailabilityDraws bounds availabilityDraws: one sample per
// operator in each of the two families.
const maxAvailabilityDraws = 8

// availabilityDraws is how many Responds samples one probe consumes in
// the campaign: one per v4 experiment, plus one per v6 experiment when
// the probe has routed IPv6. Dead probes are skipped before sampling.
func availabilityDraws(probe *atlas.Probe) int {
	if probe.Availability == atlas.Dead {
		return 0
	}
	n := len(publicdns.All)
	if probe.HasIPv6 {
		n *= 2
	}
	return n
}

// runRecords runs the detector from every responding probe the world
// owns and collects the records.
func runRecords(w *World) []*ProbeRecord {
	var records []*ProbeRecord
	streamRecords(w, 0, func(rec *ProbeRecord) bool {
		records = append(records, rec)
		return true
	})
	w.studyMetrics.observeRetained(len(records))
	return records
}

// streamRecords is the measurement sweep underneath both pipelines:
// it yields each record the moment its measurement completes, retaining
// nothing itself. The in-memory path's yield collects the records; the
// streaming path folds each into an accumulator and lets it go. A false
// return from yield stops the sweep (used to simulate crashes in
// checkpoint tests).
//
// The sweep walks the whole fleet in probe-ID order and draws every
// probe's availability samples from the platform stream as it passes —
// foreign stubs and skipped probes included — so each owned probe sees
// exactly the outcomes the serial campaign drew for it, in any shard or
// lane.
//
// In a planned-only world (the streamed pipeline's) a probe's home is
// built from its plan just before measurement and detached before the
// record is yielded, so the world holds at most one home at a time;
// dead, offline and skipped probes never get one. An eagerly built
// world already holds every home and keeps them.
//
// skip suppresses the first skip records the world would produce — a
// resumed shard's already-checkpointed prefix. Skipped probes are not
// measured, not yielded, and not counted in the engine's Stable
// counters (the checkpoint's restored registry already carries their
// contribution). Skipping is deterministic because a probe's
// measurement outcome never depends on the measurements before it: the
// availability draws do not depend on measurement, fault decisions
// hash packet content, and resolver cache warmth only moves Diagnostic
// RTTs.
func streamRecords(w *World, skip int, yield func(*ProbeRecord) bool) {
	sm := w.studyMetrics
	measureStart := time.Now()
	var draws [maxAvailabilityDraws]bool
	produced, owned := 0, 0
	for _, probe := range w.Platform.Probes() {
		for i, n := 0, availabilityDraws(probe); i < n; i++ {
			draws[i] = w.Platform.Responds(probe)
		}
		if !w.Spec.owns(probe.ID) {
			continue // foreign stub: its own shard or lane records it
		}
		home := w.homes[owned]
		owned++
		if produced < skip {
			produced++
			continue // checkpointed prefix: already folded and counted
		}
		produced++
		rec := &ProbeRecord{Probe: probe, Net: w.Net}
		sm.noteRecord()
		if probe.Availability == atlas.Dead {
			sm.noteUnresponsive()
			if !yield(rec) {
				return
			}
			continue
		}
		// Per-experiment availability in the serial draw order: v4 then
		// (if routed) v6, per operator.
		online := false
		j := 0
		for _, id := range publicdns.All {
			if draws[j] {
				rec.Responded.Set(ExpKey{id, core.V4})
				online = true
			}
			j++
			if probe.HasIPv6 {
				if draws[j] {
					rec.Responded.Set(ExpKey{id, core.V6})
					online = true
				}
				j++
			}
		}
		if !online {
			sm.noteUnresponsive()
			if !yield(rec) {
				return
			}
			continue
		}
		justInTime := probe.Host == nil
		if justInTime {
			w.openHome(probe, home)
		}
		rec.Report, rec.Err = measure(w, probe)
		if justInTime {
			w.closeHome(probe, home)
		}
		sm.noteMeasured(rec.Err != "")
		if !yield(rec) {
			return
		}
	}
	sm.observeMeasure(time.Since(measureStart), produced-skip)
}

// measure runs the detector for one probe, containing any panic: a
// probe whose measurement blows up is quarantined (recorded with the
// panic message) instead of taking the shard — and with it the run —
// down. The world's event loop is drained afterwards so a half-finished
// flow cannot leak packets into the next probe's measurement.
func measure(w *World, probe *atlas.Probe) (report *core.Report, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			report = nil
			errMsg = fmt.Sprintf("quarantined: %v", r)
			// Drain in-flight events; a panicking drain would defeat the
			// quarantine, so contain that too.
			func() {
				defer func() { recover() }()
				w.Net.Run()
			}()
		}
	}()
	det := w.Platform.Detector(probe)
	if w.Spec.ClientWrapper != nil {
		det.Client = w.Spec.ClientWrapper(det.Client, probe)
	}
	return det.Run(), ""
}

// Intercepted returns the records whose probes the technique flagged as
// intercepted in any family (the paper's 220).
func (r *Results) Intercepted() []*ProbeRecord {
	var out []*ProbeRecord
	for _, rec := range r.Records {
		if rec.Report != nil && rec.Report.Intercepted() {
			out = append(out, rec)
		}
	}
	return out
}

// Quarantined returns the records whose measurements panicked and were
// contained.
func (r *Results) Quarantined() []*ProbeRecord {
	var out []*ProbeRecord
	for _, rec := range r.Records {
		if rec.Err != "" {
			out = append(out, rec)
		}
	}
	return out
}
