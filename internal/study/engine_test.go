package study_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/dnswatch/dnsloc/internal/analysis"
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/publicdns"
	"github.com/dnswatch/dnsloc/internal/study"
)

// renderAll rasterizes every table and figure the study feeds, so the
// determinism tests compare exactly what the paper artifacts contain.
func renderAll(res *study.Results) string {
	t4 := analysis.BuildTable4(res)
	return analysis.FormatTable4(t4) + "\n" +
		analysis.CSVTable4(t4) + "\n" +
		analysis.FormatTable5(analysis.BuildTable5(res)) + "\n" +
		analysis.FormatFigure3(analysis.BuildFigure3(res, 15)) + "\n" +
		analysis.FormatFigure4(analysis.BuildFigure4(res, 15)) + "\n" +
		analysis.FormatAccuracy(analysis.BuildAccuracy(res))
}

// respondedTotals counts per-experiment availability — the Responded
// sets feed Table 4's "Total" columns and depend on the platform RNG
// stream, so they prove every shard's sweep replays it faithfully.
func respondedTotals(res *study.Results) map[study.ExpKey]int {
	out := make(map[study.ExpKey]int)
	for _, rec := range res.Records {
		for _, id := range publicdns.All {
			for _, f := range []core.Family{core.V4, core.V6} {
				if k := (study.ExpKey{Resolver: id, Family: f}); rec.Responded.Get(k) {
					out[k]++
				}
			}
		}
	}
	return out
}

// TestExpSetSlots: the eight location experiments occupy distinct
// ExpSet slots, and keys outside them are never members.
func TestExpSetSlots(t *testing.T) {
	var keys []study.ExpKey
	for _, id := range publicdns.All {
		for _, f := range []core.Family{core.V4, core.V6} {
			keys = append(keys, study.ExpKey{Resolver: id, Family: f})
		}
	}
	var s study.ExpSet
	for i, k := range keys {
		s.Set(k)
		for j, o := range keys {
			if s.Get(o) != (j <= i) {
				t.Fatalf("after setting %d keys: Get(%v) = %v", i+1, o, s.Get(o))
			}
		}
	}
	for _, k := range []study.ExpKey{{Resolver: "nonesuch", Family: core.V4}, {Resolver: publicdns.Google, Family: "IPvX"}} {
		if s.Get(k) {
			t.Errorf("Get(%v) = true for a key outside the experiments", k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%v) did not panic", k)
				}
			}()
			s.Set(k)
		}()
	}
}

// TestParallelBuildMatchesSerial pins the parallel world build: a
// world populated with many org-build workers renders byte-identical
// output to one populated serially. GOMAXPROCS is not part of the
// determinism surface, so the worker counts are forced explicitly —
// this is what exercises the parallel path on single-core CI.
func TestParallelBuildMatchesSerial(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)

	serialTpl := study.NewWorldTemplate(spec)
	serialTpl.BuildWorkers = 1
	want := renderAll(study.Run(serialTpl.Build(spec)))

	for _, workers := range []int{4, 16} {
		tpl := study.NewWorldTemplate(spec)
		tpl.BuildWorkers = workers
		if got := renderAll(study.Run(tpl.Build(spec))); got != want {
			t.Errorf("BuildWorkers=%d world diverges from serial build:\n%s\n---\n%s", workers, got, want)
		}
	}

	// Sharded worlds built in parallel must agree with the serial world
	// too (stubs, address allocators, and RNG replay all line up).
	tpl := study.NewWorldTemplate(spec)
	tpl.BuildWorkers = 8
	var merged []*study.ProbeRecord
	for k := 0; k < 3; k++ {
		merged = append(merged, study.Run(tpl.Build(spec.Shard(k, 3))).Records...)
	}
	sharded := &study.Results{World: serialTpl.Build(spec), Records: merged}
	sort.Slice(sharded.Records, func(i, j int) bool {
		return sharded.Records[i].Probe.ID < sharded.Records[j].Probe.ID
	})
	if got := renderAll(sharded); got != want {
		t.Error("parallel-built shard worlds diverge from the serial build")
	}
}

// TestShardedEngineDeterministic runs the study serially and at several
// worker counts and asserts every rendered table and figure — plus the
// raw availability totals — is byte-identical.
func TestShardedEngineDeterministic(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)

	serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
	wantRender := renderAll(serial)
	wantTotals := respondedTotals(serial)

	// The plain serial Run must agree with the workers=1 engine.
	direct := study.Run(study.BuildWorld(spec))
	if got := renderAll(direct); got != wantRender {
		t.Fatalf("workers=1 engine output differs from direct serial Run:\n%s\n---\n%s", got, wantRender)
	}

	for _, workers := range []int{2, 3, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := study.RunSharded(spec, study.EngineOptions{Workers: workers})
			if len(res.Records) != len(serial.Records) {
				t.Fatalf("records = %d, want %d", len(res.Records), len(serial.Records))
			}
			for i, rec := range res.Records {
				if rec.Probe.ID != serial.Records[i].Probe.ID {
					t.Fatalf("record %d: probe %d, want %d (merge order broken)",
						i, rec.Probe.ID, serial.Records[i].Probe.ID)
				}
			}
			if got := renderAll(res); got != wantRender {
				t.Errorf("rendered artifacts differ at workers=%d:\n%s\n--- want ---\n%s", workers, got, wantRender)
			}
			totals := respondedTotals(res)
			if len(totals) != len(wantTotals) {
				t.Fatalf("responded experiments = %d, want %d", len(totals), len(wantTotals))
			}
			for k, n := range wantTotals {
				if totals[k] != n {
					t.Errorf("responded[%s/%v] = %d, want %d", k.Resolver, k.Family, totals[k], n)
				}
			}
		})
	}
}

// TestShardedProgressAndRoster checks the per-shard progress callback
// fires once per shard and the shards partition the fleet exactly.
func TestShardedProgressAndRoster(t *testing.T) {
	spec := study.PaperSpec().Scale(0.02)
	const workers = 4
	perShard := make(map[int]int)
	res := study.RunSharded(spec, study.EngineOptions{
		Workers: workers,
		Progress: func(shard, total, probes int, _ time.Duration) {
			if total != workers {
				t.Errorf("progress total = %d, want %d", total, workers)
			}
			perShard[shard] += probes
		},
	})
	calls, sum := 0, 0
	for _, n := range perShard {
		calls++
		sum += n
	}
	if calls != workers {
		t.Errorf("progress calls = %d, want %d", calls, workers)
	}
	if sum != len(res.Records) {
		t.Errorf("shard probes sum = %d, want %d", sum, len(res.Records))
	}
	if len(res.Records) != spec.TotalProbes {
		t.Errorf("records = %d, want %d", len(res.Records), spec.TotalProbes)
	}
	seen := make(map[int]bool)
	for _, rec := range res.Records {
		if seen[rec.Probe.ID] {
			t.Fatalf("probe %d appears in two shards", rec.Probe.ID)
		}
		seen[rec.Probe.ID] = true
		if rec.Net == nil || rec.Probe.Host == nil {
			t.Fatalf("probe %d: record missing simulation state", rec.Probe.ID)
		}
	}
}

// TestShardedVerdictsMatchSerial compares every per-probe verdict and
// intercepted set between the serial and the 8-way sharded run — a
// stronger property than the rendered artifacts alone.
func TestShardedVerdictsMatchSerial(t *testing.T) {
	spec := study.PaperSpec().Scale(0.05)
	serial := study.RunSharded(spec, study.EngineOptions{Workers: 1})
	sharded := study.RunSharded(spec, study.EngineOptions{Workers: 8})
	if len(serial.Records) != len(sharded.Records) {
		t.Fatalf("records: %d vs %d", len(serial.Records), len(sharded.Records))
	}
	for i := range serial.Records {
		a, b := serial.Records[i], sharded.Records[i]
		if (a.Report == nil) != (b.Report == nil) {
			t.Errorf("probe %d: responded mismatch", a.Probe.ID)
			continue
		}
		if a.Report == nil {
			continue
		}
		if a.Report.Verdict != b.Report.Verdict {
			t.Errorf("probe %d: verdict %s vs %s", a.Probe.ID, a.Report.Verdict, b.Report.Verdict)
		}
		if a.Report.CPEString != b.Report.CPEString {
			t.Errorf("probe %d: cpe string %q vs %q", a.Probe.ID, a.Report.CPEString, b.Report.CPEString)
		}
		if !sameIDs(a.Report.InterceptedV4, b.Report.InterceptedV4) ||
			!sameIDs(a.Report.InterceptedV6, b.Report.InterceptedV6) {
			t.Errorf("probe %d: intercepted sets differ", a.Probe.ID)
		}
		for _, f := range []core.Family{core.V4, core.V6} {
			for _, id := range publicdns.All {
				k := study.ExpKey{Resolver: id, Family: f}
				if a.Responded.Get(k) != b.Responded.Get(k) {
					t.Errorf("probe %d: responded[%s/%v] %v vs %v",
						a.Probe.ID, id, f, a.Responded.Get(k), b.Responded.Get(k))
				}
			}
		}
	}
}

func sameIDs(a, b []publicdns.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
