package main

import (
	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/study"
)

// workload is one closed batch run of the pilot study: a fixed probe
// count pushed through one of the study engines at a fixed
// (workers × lanes) grid. Every workload runs one lane per shard, so a
// probe's shard — ID mod workers — also names the event loop that
// measured it.
type workload struct {
	name string
	// scale multiplies study.PaperSpec's 10,000 probes and every quota.
	scale   float64
	workers int
	// stream selects study.RunStreamed with per-shard JSONL sinks and
	// fsync'd checkpoints every checkpointEvery records; otherwise the
	// in-memory study.RunSharded retains every ProbeRecord.
	stream          bool
	checkpointEvery int
	// hostile turns on the fault plane, retries, the top adversary
	// rung, both extra detection signals, and half-adopted DoT.
	hostile bool
}

// workloads are the benchmark's workloads; README.md says why each
// exists.
var workloads = []workload{
	{name: "clean-mem", scale: 3, workers: 1},
	{name: "stream-ckpt", scale: 6, workers: 2, stream: true, checkpointEvery: 1000},
	{name: "hostile-mem", scale: 0.6, workers: 1, hostile: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec builds the study specification the program receives. The seed
// is the only input that varies between runs of one workload.
func (w workload) spec(seed int64) study.Spec {
	s := study.PaperSpec().Scale(w.scale)
	s.Seed = seed
	if w.hostile {
		fp := netsim.PresetFault(0.5, seed+9000)
		s.Fault = &fp
		// No backoff: a retry costs simulated time only, never a sleep.
		s.Retry = &core.RetryPolicy{MaxAttempts: 3}
		s.Adversary = 4
		s.CertCheck = true
		s.DriftRounds = 2
		s.Encryption = &study.Encryption{
			Adoption:  0.5,
			Transport: core.TransportDoTOpportunistic,
			Policy:    dnsserver.EncTerminate,
		}
	}
	return s
}
