package isp

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/netsim"
	"github.com/dnswatch/dnsloc/internal/publicdns"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func testConfig() Config {
	return Config{
		ASN: 7922, Name: "Comcast", Country: "US",
		Region:          publicdns.RegionNA,
		PrefixV4:        pfx("96.120.0.0/16"),
		PrefixV6:        pfx("2601:db00::/48"),
		ResolverPersona: dnsserver.PersonaUnbound,
		RootHints:       []netip.Addr{addr("198.41.0.4")},
	}
}

func TestBuildAddressing(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	if n.ResolverAddr != addr("96.120.0.53") {
		t.Errorf("resolver addr = %s", n.ResolverAddr)
	}
	if n.RefusingAddr != addr("96.120.0.54") {
		t.Errorf("refusing addr = %s", n.RefusingAddr)
	}
	if !n.ResolverAddr6.IsValid() || !pfx("2601:db00::/56").Contains(n.ResolverAddr6) {
		t.Errorf("resolver v6 = %s", n.ResolverAddr6)
	}
	if n.ResolverAddrPort() != netip.AddrPortFrom(n.ResolverAddr, 53) {
		t.Error("ResolverAddrPort mismatch")
	}
}

func TestBuildWithoutV6(t *testing.T) {
	cfg := testConfig()
	cfg.PrefixV6 = netip.Prefix{}
	n := Build(cfg, netsim.NewRouter("uplink"))
	if n.ResolverAddr6.IsValid() {
		t.Errorf("v6 resolver built without a v6 allocation: %s", n.ResolverAddr6)
	}
}

func TestSegmentsGetDistinctPrefixes(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	s1 := n.AddSegment(nil)
	s2 := n.AddSegment(nil)
	if s1.PrefixV4 == s2.PrefixV4 {
		t.Errorf("segments share prefix %s", s1.PrefixV4)
	}
	if s1.PrefixV4.Overlaps(pfx("96.120.0.0/24")) {
		t.Error("segment overlaps resolver infrastructure /24")
	}
	if s1.PrefixV6 == s2.PrefixV6 {
		t.Errorf("segments share v6 prefix %s", s1.PrefixV6)
	}
}

func TestAllocHomeDistinctAddresses(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	seg := n.AddSegment(nil)
	h1 := n.AllocHome(seg, true)
	h2 := n.AllocHome(seg, true)
	if h1.WANv4 == h2.WANv4 {
		t.Errorf("homes share WAN %s", h1.WANv4)
	}
	if !seg.PrefixV4.Contains(h1.WANv4) {
		t.Errorf("home WAN %s outside segment %s", h1.WANv4, seg.PrefixV4)
	}
	if h1.LANPrefix6 == h2.LANPrefix6 {
		t.Errorf("homes share /64 %s", h1.LANPrefix6)
	}
	if !seg.PrefixV6.Contains(h1.LANPrefix6.Addr()) {
		t.Errorf("home /64 %s outside segment %s", h1.LANPrefix6, seg.PrefixV6)
	}
	h3 := n.AllocHome(seg, false)
	if h3.WANv6.IsValid() || h3.LANPrefix6.IsValid() {
		t.Error("v4-only home got v6 addressing")
	}
}

func TestMiddleboxRuleCompilation(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	g := publicdns.Lookup(publicdns.Google)

	seg := n.AddSegment(&MiddleboxSpec{
		Rules:           []MiddleboxRule{{Targets: g.V4}},
		InterceptBogons: true,
	})
	if seg.Router.NAT == nil {
		t.Fatal("no NAT on middlebox segment")
	}
	// Two rules: the target rule plus the implicit bogon rule.
	if len(seg.Router.NAT.DNATRules) != 2 {
		t.Fatalf("rules = %d, want 2", len(seg.Router.NAT.DNATRules))
	}
	target := seg.Router.NAT.DNATRules[0]
	pkt := netsim.Packet{Proto: netsim.UDP, Src: netip.MustParseAddrPort("96.120.1.1:4000")}
	pkt.Dst = netip.AddrPortFrom(g.V4[0], 53)
	if !target.Match(&pkt) {
		t.Error("target rule missed google")
	}
	pkt.Dst = netip.MustParseAddrPort("1.1.1.1:53")
	if target.Match(&pkt) {
		t.Error("target rule matched cloudflare")
	}
	// Queries already addressed to the ISP resolver must pass.
	pkt.Dst = netip.AddrPortFrom(n.ResolverAddr, 53)
	if target.Match(&pkt) {
		t.Error("rule matched the ISP resolver itself")
	}
	// Bogons are excluded from regular rules, matched by the implicit one.
	pkt.Dst = netip.MustParseAddrPort("192.0.2.53:53")
	if target.Match(&pkt) {
		t.Error("regular rule matched a bogon")
	}
	if !seg.Router.NAT.DNATRules[1].Match(&pkt) {
		t.Error("implicit bogon rule missed")
	}
	// Non-53 ports pass everything.
	pkt.Dst = netip.MustParseAddrPort("192.0.2.53:443")
	if seg.Router.NAT.DNATRules[1].Match(&pkt) {
		t.Error("bogon rule matched port 443")
	}
}

func TestHiddenMiddleboxHasNoBogonRule(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	seg := n.AddSegment(&MiddleboxSpec{Rules: []MiddleboxRule{{All: true}}})
	if len(seg.Router.NAT.DNATRules) != 1 {
		t.Fatalf("rules = %d, want 1", len(seg.Router.NAT.DNATRules))
	}
	pkt := netsim.Packet{
		Proto: netsim.UDP,
		Src:   netip.MustParseAddrPort("96.120.1.1:4000"),
		Dst:   netip.MustParseAddrPort("192.0.2.53:53"),
	}
	if seg.Router.NAT.DNATRules[0].Match(&pkt) {
		t.Error("hidden middlebox matched a bogon destination")
	}
}

func TestRefusingRuleTargetsRefusingResolver(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	seg := n.AddSegment(&MiddleboxSpec{Rules: []MiddleboxRule{{All: true, UseRefusing: true}}})
	if got := seg.Router.NAT.DNATRules[0].To; got != netip.AddrPortFrom(n.RefusingAddr, 53) {
		t.Errorf("refusing rule targets %s", got)
	}
}

func TestV6RuleNeedsV6Allocation(t *testing.T) {
	cfg := testConfig()
	cfg.PrefixV6 = netip.Prefix{}
	n := Build(cfg, netsim.NewRouter("uplink"))
	defer func() {
		if recover() == nil {
			t.Error("v6 rule without v6 allocation did not panic")
		}
	}()
	n.AddSegment(&MiddleboxSpec{Rules: []MiddleboxRule{{All: true, V6: true}}})
}

func TestV6RuleTargetsV6Resolver(t *testing.T) {
	n := Build(testConfig(), netsim.NewRouter("uplink"))
	g := publicdns.Lookup(publicdns.Google)
	seg := n.AddSegment(&MiddleboxSpec{Rules: []MiddleboxRule{{Targets: g.V6, V6: true}}})
	rule := seg.Router.NAT.DNATRules[0]
	if rule.To != netip.AddrPortFrom(n.ResolverAddr6, 53) {
		t.Errorf("v6 rule targets %s", rule.To)
	}
	pkt := netsim.Packet{
		Proto: netsim.UDP,
		Src:   netip.MustParseAddrPort("[2601:db00:0:100::2]:4000"),
		Dst:   netip.AddrPortFrom(g.V6[0], 53),
	}
	if !rule.Match(&pkt) {
		t.Error("v6 rule missed google v6")
	}
	pkt.Dst = netip.AddrPortFrom(g.V4[0], 53)
	if rule.Match(&pkt) {
		t.Error("v6 rule matched a v4 destination")
	}
}

func TestSliceHelpersBounds(t *testing.T) {
	for _, fn := range []func(){
		func() { slice24(pfx("96.120.0.0/16"), 256) },
		func() { hostInPrefix4(pfx("96.120.0.0/16"), 0, 255) },
		func() { slice56(pfx("2601:db00::/48"), 300) },
		func() { slice64(pfx("2601:db00::/56"), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range slice did not panic")
				}
			}()
			fn()
		}()
	}
}
