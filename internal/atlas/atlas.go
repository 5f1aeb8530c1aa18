// Package atlas models a RIPE-Atlas-like measurement platform: a
// population of probe hosts scattered across countries and ISPs, with
// platform metadata (each probe's public address, AS, country) and an
// availability model — probes go offline, so each experiment reaches
// only most of the fleet, which is why the paper's Table 4 shows a
// different "Total" per resolver.
package atlas

import (
	"math/rand"
	"net/netip"
	"sort"

	"github.com/dnswatch/dnsloc/internal/core"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

// Availability classifies a probe's platform reachability for the whole
// measurement campaign.
type Availability int

// Availability classes.
const (
	// Full probes respond to every experiment.
	Full Availability = iota
	// Partial probes respond to each experiment independently with
	// PartialRespondP probability (flaky connectivity).
	Partial
	// Dead probes never respond.
	Dead
)

// GroundTruth records what the world builder actually installed for a
// probe — the hidden variable the measurement technique estimates.
type GroundTruth struct {
	// Location is the true interceptor location: "none", "cpe", "isp",
	// "isp-hidden" (in-AS but drops bogons), or "transit".
	Location string
	// PatternV4/V6 are the truly intercepted resolver sets.
	PatternV4 []publicdns.ID
	PatternV6 []publicdns.ID
	// Persona is the interceptor's version.bind string, if any.
	Persona string
	// RefusedV4 lists resolvers whose queries the interceptor blocks
	// rather than resolves.
	RefusedV4 []publicdns.ID
}

// Intercepted reports whether the probe is truly intercepted.
func (g GroundTruth) Intercepted() bool {
	return g.Location != "" && g.Location != "none"
}

// Probe is one vantage point.
type Probe struct {
	ID      int
	Country string
	ASN     int
	Org     string
	Region  publicdns.Region

	// HasIPv6 reports whether the probe's home has routed v6.
	HasIPv6 bool

	// WANv4 is the probe's public address — platform metadata, exactly
	// what Atlas exposes and what the CPE test (§3.2) needs.
	WANv4 netip.Addr

	// Host is the simulated device.
	Host *netsim.Host

	Availability Availability
	Truth        GroundTruth

	// EncTransport is the probe's stub-resolver transport configuration:
	// TransportDo53 (the default) or one of the encrypted modes when the
	// adoption model upgraded this probe.
	EncTransport core.TransportMode
}

// Platform is the probe fleet plus the availability model.
type Platform struct {
	// PartialRespondP is the per-experiment response probability of
	// Partial probes.
	PartialRespondP float64

	// Retry, when non-nil, is installed on every detector the platform
	// builds — the study engine sets it when running against a faulted
	// network.
	Retry *core.RetryPolicy

	// Metrics, when non-nil, is installed on every detector the
	// platform builds, so all probes in a world share one registry.
	Metrics *core.MetricSet

	// CertOracle, when non-nil, supplies a per-probe certificate-
	// consistency oracle; built detectors get it as their CertOracle.
	CertOracle func(*Probe) core.CertOracle

	// DriftRounds is installed on every built detector: extra
	// location-enumeration rounds feeding the drift signal.
	DriftRounds int

	// EncryptedUpgrade selects which query targets a transport-upgraded
	// probe reaches over DoT/DoH — typically the public operators' known
	// anycast addresses, leaving the CPE and bogon steps on cleartext as
	// real stubs do. Nil upgrades every target.
	EncryptedUpgrade func(netip.Addr) bool

	probes []*Probe
	rng    *rand.Rand
	net    *netsim.Network
}

// NewPlatform creates an empty platform over a network with a seeded
// availability RNG.
func NewPlatform(net *netsim.Network, seed int64) *Platform {
	return &Platform{
		PartialRespondP: 0.75,
		rng:             rand.New(rand.NewSource(seed)),
		net:             net,
	}
}

// Add registers a probe.
func (p *Platform) Add(probe *Probe) { p.probes = append(p.probes, probe) }

// Probes returns the fleet sorted by ID.
func (p *Platform) Probes() []*Probe {
	out := append([]*Probe(nil), p.probes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the fleet size.
func (p *Platform) Len() int { return len(p.probes) }

// Responds samples whether a probe answers one experiment's measurement
// request. Deterministic given the platform seed and call order.
func (p *Platform) Responds(probe *Probe) bool {
	switch probe.Availability {
	case Full:
		return true
	case Partial:
		return p.rng.Float64() < p.PartialRespondP
	default:
		return false
	}
}

// Client builds the detector transport for a probe: a plain SimClient
// for Do53 probes, an EncryptedClient for transport-upgraded ones.
func (p *Platform) Client(probe *Probe) core.Client {
	sim := &core.SimClient{Net: p.net, Host: probe.Host}
	if !probe.EncTransport.Encrypted() {
		return sim
	}
	return &core.EncryptedClient{
		Sim:     sim,
		Mode:    probe.EncTransport,
		Upgrade: p.EncryptedUpgrade,
	}
}

// Detector builds a ready detector for a probe, configured with the
// platform's metadata about it.
func (p *Platform) Detector(probe *Probe) *core.Detector {
	d := &core.Detector{
		Client:      p.Client(probe),
		CPEPublicV4: probe.WANv4,
		QueryV6:     probe.HasIPv6,
		Retry:       p.Retry,
		Metrics:     p.Metrics,
		DriftRounds: p.DriftRounds,
	}
	if p.CertOracle != nil {
		d.CertOracle = p.CertOracle(probe)
	}
	return d
}
