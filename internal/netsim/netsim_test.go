package netsim

import (
	"errors"
	"net/netip"
	"strings"
	"testing"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }
func addr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix  { return netip.MustParsePrefix(s) }

// echoService answers every datagram with a recognizable payload that
// embeds the service's tag, standing in for a DNS server in these tests.
func echoService(tag string) Service {
	return ServiceFunc(func(sc *ServiceCtx, pkt Packet) {
		sc.Reply(pkt, []byte(tag+":"+string(pkt.Payload)))
	})
}

// testWorld is a small home-and-ISP topology:
//
//	host(10.0.0.2) - cpe(10.0.0.1 / 96.120.0.10) - access - border - transit - resolver(8.8.8.8)
type testWorld struct {
	net      *Network
	host     *Host
	cpe      *Router
	access   *Router
	border   *Router
	transit  *Router
	resolver *Router
}

func buildTestWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{net: NewNetwork()}

	w.resolver = NewRouter("resolver-8888", addr("8.8.8.8"))
	w.resolver.Bind(53, echoService("google"))

	w.transit = NewRouter("transit")
	w.border = NewRouter("isp-border")
	w.access = NewRouter("isp-access")

	w.cpe = NewRouter("cpe", addr("10.0.0.1"), addr("96.120.0.10"))
	w.cpe.NAT = NewNAT()
	w.cpe.NAT.MasqueradeV4 = addr("96.120.0.10")
	w.cpe.NAT.LANPrefixes = []netip.Prefix{pfx("10.0.0.0/24")}

	w.host = NewHost("probe", addr("10.0.0.2"), netip.Addr{}, w.cpe)

	// Wiring.
	w.cpe.AddRoute(pfx("10.0.0.0/24"), w.host)
	w.cpe.AddDefaultRoute(w.access)

	w.access.AddRoute(pfx("96.120.0.0/16"), w.cpe)
	w.access.AddDefaultRoute(w.border)

	w.border.AddRoute(pfx("96.120.0.0/16"), w.access)
	w.border.AddDefaultRoute(w.transit)

	w.transit.AddRoute(pfx("8.8.8.0/24"), w.resolver)
	w.transit.AddRoute(pfx("96.0.0.0/8"), w.border)

	w.resolver.AddDefaultRoute(w.transit)
	return w
}

func TestEndToEndExchangeThroughNAT(t *testing.T) {
	w := buildTestWorld(t)
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q1"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 {
		t.Fatalf("got %d responses, want 1", len(resps))
	}
	r := resps[0]
	if string(r.Payload) != "google:q1" {
		t.Errorf("payload = %q", r.Payload)
	}
	if r.Src != ap("8.8.8.8:53") {
		t.Errorf("response source = %s, want 8.8.8.8:53", r.Src)
	}
	if r.Dst.Addr() != addr("10.0.0.2") {
		t.Errorf("response delivered to %s, not un-SNATed", r.Dst)
	}
}

func TestSNATHidesLANAddress(t *testing.T) {
	w := buildTestWorld(t)
	var seenSrc netip.AddrPort
	w.resolver.Bind(53, ServiceFunc(func(sc *ServiceCtx, pkt Packet) {
		seenSrc = pkt.Src
		sc.Reply(pkt, []byte("ok"))
	}))
	if _, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); err != nil {
		t.Fatal(err)
	}
	if seenSrc.Addr() != addr("96.120.0.10") {
		t.Errorf("resolver saw source %s, want masqueraded 96.120.0.10", seenSrc)
	}
}

func TestClosedPortTimesOut(t *testing.T) {
	w := buildTestWorld(t)
	_, err := w.host.Exchange(w.net, ap("8.8.8.8:5353"), []byte("q"), ExchangeOptions{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestUnroutedDestinationTimesOut(t *testing.T) {
	w := buildTestWorld(t)
	_, err := w.host.Exchange(w.net, ap("203.0.113.1:53"), []byte("q"), ExchangeOptions{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestCPEDNATInterceptionSpoofsSource(t *testing.T) {
	w := buildTestWorld(t)
	// Put a local "forwarder" on the CPE and intercept all port-53
	// traffic to it — the XB6/XDNS configuration.
	w.cpe.Bind(53, echoService("cpe-forwarder"))
	w.cpe.NAT.AddDNAT(DNATRule{
		Name:  "xdns",
		Match: MatchUDPPort53,
		To:    ap("10.0.0.1:53"),
	})
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q2"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := resps[0]
	if string(r.Payload) != "cpe-forwarder:q2" {
		t.Errorf("payload = %q, want interception by CPE forwarder", r.Payload)
	}
	if r.Src != ap("8.8.8.8:53") {
		t.Errorf("intercepted response source = %s, want spoofed 8.8.8.8:53", r.Src)
	}
}

func TestMiddleboxDNATInterception(t *testing.T) {
	w := buildTestWorld(t)
	// The ISP resolver lives behind the border router.
	ispResolver := NewRouter("isp-resolver", addr("96.121.0.53"))
	ispResolver.Bind(53, echoService("isp"))
	ispResolver.AddDefaultRoute(w.border)
	w.border.AddRoute(pfx("96.121.0.0/24"), ispResolver)
	w.access.AddRoute(pfx("96.121.0.0/24"), w.border)

	// Interception at the access router (both directions pass here).
	w.access.NAT = NewNAT()
	w.access.NAT.AddDNAT(DNATRule{
		Name:  "isp-middlebox",
		Match: MatchUDPPort53,
		To:    ap("96.121.0.53:53"),
	})

	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q3"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := resps[0]
	if string(r.Payload) != "isp:q3" {
		t.Errorf("payload = %q, want ISP resolver answer", r.Payload)
	}
	if r.Src != ap("8.8.8.8:53") {
		t.Errorf("source = %s, want spoofed 8.8.8.8:53", r.Src)
	}
}

func TestQueryReplicationDeliversTwoResponses(t *testing.T) {
	w := buildTestWorld(t)
	ispResolver := NewRouter("isp-resolver", addr("96.121.0.53"))
	ispResolver.Bind(53, echoService("isp"))
	ispResolver.AddDefaultRoute(w.border)
	w.border.AddRoute(pfx("96.121.0.0/24"), ispResolver)
	w.access.AddRoute(pfx("96.121.0.0/24"), w.border)

	w.access.NAT = NewNAT()
	w.access.NAT.AddDNAT(DNATRule{
		Name:      "replicating-middlebox",
		Match:     MatchUDPPort53,
		To:        ap("96.121.0.53:53"),
		Replicate: true,
	})

	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q4"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2 under replication", len(resps))
	}
	payloads := map[string]bool{}
	for _, r := range resps {
		payloads[string(r.Payload)] = true
		if r.Src != ap("8.8.8.8:53") {
			t.Errorf("response source = %s, want 8.8.8.8:53 for both", r.Src)
		}
	}
	if !payloads["isp:q4"] || !payloads["google:q4"] {
		t.Errorf("payloads = %v, want both isp and google answers", payloads)
	}
}

// TestReplicatedDNATCopiesKeepTheirAddresses: under a Replicate rule
// the router rewrites the packet in place and routes a replica of the
// original, so each service must see its own copy — the diverted one
// readdressed with the client's original destination in OrigDst, the
// replica untouched.
func TestReplicatedDNATCopiesKeepTheirAddresses(t *testing.T) {
	w := buildTestWorld(t)
	var seen []Packet
	record := func(tag string) Service {
		return ServiceFunc(func(sc *ServiceCtx, pkt Packet) {
			seen = append(seen, pkt)
			sc.Reply(pkt, []byte(tag))
		})
	}
	w.resolver.Bind(53, record("google"))
	ispResolver := NewRouter("isp-resolver", addr("96.121.0.53"))
	ispResolver.Bind(53, record("isp"))
	ispResolver.AddDefaultRoute(w.border)
	w.border.AddRoute(pfx("96.121.0.0/24"), ispResolver)
	w.access.AddRoute(pfx("96.121.0.0/24"), w.border)
	w.access.NAT = NewNAT()
	w.access.NAT.AddDNAT(DNATRule{Name: "replicating-middlebox", Match: MatchUDPPort53, To: ap("96.121.0.53:53"), Replicate: true})

	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{})
	if err != nil || len(resps) != 2 {
		t.Fatalf("got %d responses (err %v), want 2", len(resps), err)
	}
	if len(seen) != 2 {
		t.Fatalf("services saw %d queries, want 2", len(seen))
	}
	byDst := map[netip.AddrPort]Packet{}
	for _, p := range seen {
		byDst[p.Dst] = p
	}
	diverted, ok := byDst[ap("96.121.0.53:53")]
	if !ok || diverted.OrigDst != ap("8.8.8.8:53") {
		t.Errorf("diverted copy: present=%t OrigDst=%s, want OrigDst 8.8.8.8:53", ok, diverted.OrigDst)
	}
	replica, ok := byDst[ap("8.8.8.8:53")]
	if !ok || replica.OrigDst.IsValid() {
		t.Errorf("replica: present=%t OrigDst=%s, want no OrigDst", ok, replica.OrigDst)
	}
	if diverted.Src != replica.Src || string(diverted.Payload) != string(replica.Payload) {
		t.Errorf("copies diverge beyond the rewrite: src %s/%s payload %q/%q",
			diverted.Src, replica.Src, diverted.Payload, replica.Payload)
	}
	for _, r := range resps {
		if r.Src != ap("8.8.8.8:53") {
			t.Errorf("response source = %s, want 8.8.8.8:53", r.Src)
		}
	}
}

// TestLocallyBuiltPacketsDoNotAllocate: packets a device builds during a
// receive — ServiceCtx.Send's packet and a DNAT replica — reach route
// filters and match callbacks by pointer, so they live in the network's
// spare slots rather than escaping to the heap on every send.
func TestLocallyBuiltPacketsDoNotAllocate(t *testing.T) {
	n := NewNetwork()
	sink := namedDev("sink")
	filter := func(pkt *Packet) (bool, string) { return pkt.TTL == 0, "ttl zero" }

	svc := NewRouter("svc", addr("192.0.2.1"))
	svc.AddDefaultRouteFiltered(sink, filter)
	svc.Bind(53, ServiceFunc(func(sc *ServiceCtx, pkt Packet) {
		sc.Send(Packet{Src: pkt.Dst, Dst: pkt.Src, Proto: UDP, TTL: DefaultTTL, Payload: pkt.Payload})
	}))
	query := Packet{Src: ap("198.51.100.7:50000"), Dst: ap("192.0.2.1:53"), Proto: UDP, TTL: DefaultTTL, Payload: []byte("q")}

	mb := NewRouter("mb")
	mb.AddDefaultRouteFiltered(sink, filter)
	mb.NAT = NewNAT()
	mb.NAT.AddDNAT(DNATRule{Name: "r", Match: MatchUDPPort53, To: ap("203.0.113.53:53"), Replicate: true})
	diverted := Packet{Src: ap("198.51.100.7:50000"), Dst: ap("8.8.8.8:53"), Proto: UDP, TTL: DefaultTTL, Payload: []byte("q")}

	for _, c := range []struct {
		name string
		dev  Device
		pkt  Packet
	}{{"ServiceCtx.Send", svc, query}, {"DNAT replica", mb, diverted}} {
		run := func() {
			n.Inject(c.dev, c.pkt)
			if _, err := n.Run(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the spare slots and every calendar bucket: the clock moves
		// about one bucket per delivery, around the 256-bucket ring.
		for i := 0; i < 1000; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per delivery, want 0", c.name, allocs)
		}
	}
}

func TestBogonEgressFilterDrops(t *testing.T) {
	w := buildTestWorld(t)
	filtered := 0
	// Re-adding the default route replaces the unfiltered one.
	w.border.AddDefaultRouteFiltered(w.transit, func(pkt *Packet) (bool, string) {
		if pkt.Dst.Addr() == addr("192.0.2.53") {
			filtered++
			return true, "bogon egress"
		}
		return false, ""
	})
	_, err := w.host.Exchange(w.net, ap("192.0.2.53:53"), []byte("q"), ExchangeOptions{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if filtered != 1 {
		t.Errorf("filter fired %d times, want 1", filtered)
	}
}

func TestTTLExpiryDropsQuery(t *testing.T) {
	w := buildTestWorld(t)
	// Path is host -> cpe -> access -> border -> transit -> resolver:
	// 5 forwards. TTL 3 dies in transit.
	_, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{TTL: 3})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout for TTL 3", err)
	}
	// But a CPE interceptor answers even TTL 1: interception precedes
	// forwarding — the basis of TTL-ladder localization.
	w.cpe.Bind(53, echoService("cpe"))
	w.cpe.NAT.AddDNAT(DNATRule{Name: "x", Match: MatchUDPPort53, To: ap("10.0.0.1:53")})
	resps, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{TTL: 1})
	if err != nil {
		t.Fatalf("TTL-1 query through interceptor: %v", err)
	}
	if string(resps[0].Payload) != "cpe:q" {
		t.Errorf("payload = %q", resps[0].Payload)
	}
}

func TestForwardingLoopHitsEventBudget(t *testing.T) {
	n := NewNetwork()
	n.MaxEvents = 1000
	a := NewRouter("a")
	b := NewRouter("b")
	a.AddDefaultRoute(b)
	b.AddDefaultRoute(a)
	n.Inject(a, Packet{Src: ap("1.2.3.4:1"), Dst: ap("5.6.7.8:1"), Proto: UDP, TTL: 1 << 30})
	_, err := n.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestTTLBoundsLoopsWithoutBudget(t *testing.T) {
	n := NewNetwork()
	a := NewRouter("a")
	b := NewRouter("b")
	a.AddDefaultRoute(b)
	b.AddDefaultRoute(a)
	n.Inject(a, Packet{Src: ap("1.2.3.4:1"), Dst: ap("5.6.7.8:1"), Proto: UDP, TTL: DefaultTTL})
	processed, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if processed > DefaultTTL+2 {
		t.Errorf("processed %d events, want TTL-bounded", processed)
	}
}

func TestV6Exchange(t *testing.T) {
	n := NewNetwork()
	res := NewRouter("res6", addr("2001:4860:4860::8888"))
	res.Bind(53, echoService("g6"))
	gw := NewRouter("gw6", addr("2001:db9::1"))
	host := NewHost("h6", netip.Addr{}, addr("2001:db9::2"), gw)
	gw.AddRoute(pfx("2001:db9::/64"), host)
	gw.AddDefaultRoute(res)
	res.AddDefaultRoute(gw)
	resps, err := host.Exchange(n, ap("[2001:4860:4860::8888]:53"), []byte("q6"), ExchangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resps[0].Payload) != "g6:q6" {
		t.Errorf("payload = %q", resps[0].Payload)
	}
	// Family mismatch: v6-only host cannot query v4.
	if _, err := host.Exchange(n, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); !errors.Is(err, ErrNoAddress) {
		t.Errorf("v4 query from v6-only host: err = %v, want ErrNoAddress", err)
	}
}

func TestTraceCapturesNATEvents(t *testing.T) {
	w := buildTestWorld(t)
	var log []TraceEvent
	w.net.Tap(func(e TraceEvent) { log = append(log, e) })
	w.cpe.Bind(53, echoService("cpe"))
	w.cpe.NAT.AddDNAT(DNATRule{Name: "x", Match: MatchUDPPort53, To: ap("10.0.0.1:53")})
	if _, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceKind]int{}
	for _, e := range log {
		kinds[e.Kind]++
	}
	if kinds[TraceDNAT] != 1 || kinds[TraceUnDNAT] != 1 || kinds[TraceDeliver] < 2 {
		t.Errorf("trace kinds = %v, want one dnat, one undnat, deliveries", kinds)
	}
	var sawSpoof bool
	for _, e := range log {
		if e.Kind == TraceUnDNAT && strings.Contains(e.Note, "spoof") {
			sawSpoof = true
		}
	}
	if !sawSpoof {
		t.Error("no spoofing note in trace")
	}
}

func TestExchangeDistinctSourcePorts(t *testing.T) {
	w := buildTestWorld(t)
	var ports []uint16
	w.resolver.Bind(53, ServiceFunc(func(sc *ServiceCtx, pkt Packet) {
		ports = append(ports, pkt.Src.Port())
		sc.Reply(pkt, []byte("ok"))
	}))
	for i := 0; i < 3; i++ {
		if _, err := w.host.Exchange(w.net, ap("8.8.8.8:53"), []byte("q"), ExchangeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint16]bool{}
	for _, p := range ports {
		if seen[p] {
			t.Fatalf("SNAT reused external port %d across flows", p)
		}
		seen[p] = true
	}
}

func TestNATMatchHelpers(t *testing.T) {
	q := Packet{Proto: UDP, Dst: ap("8.8.8.8:53")}
	if !MatchUDPPort53(&q) {
		t.Error("MatchUDPPort53 missed")
	}
	if MatchUDPPort53(&Packet{Proto: UDP, Dst: ap("8.8.8.8:443")}) {
		t.Error("MatchUDPPort53 matched port 443")
	}
	only := MatchUDP53To(addr("8.8.8.8"))
	if !only(&q) || only(&Packet{Proto: UDP, Dst: ap("1.1.1.1:53")}) {
		t.Error("MatchUDP53To misbehaves")
	}
	except := MatchUDP53Except(addr("9.9.9.9"))
	if !except(&q) || except(&Packet{Proto: UDP, Dst: ap("9.9.9.9:53")}) {
		t.Error("MatchUDP53Except misbehaves")
	}
}

func TestPacketHelpers(t *testing.T) {
	p := Packet{Src: ap("1.2.3.4:5"), Dst: ap("[2001:db8::1]:53"), Proto: UDP, TTL: 7, Payload: []byte("x")}
	if !p.IsIPv6() {
		t.Error("IsIPv6 = false")
	}
	c := p.Clone()
	c.Payload[0] = 'y'
	if p.Payload[0] != 'x' {
		t.Error("Clone aliases payload")
	}
	if s := p.String(); !strings.Contains(s, "udp") || !strings.Contains(s, "ttl=7") {
		t.Errorf("String = %q", s)
	}
}
