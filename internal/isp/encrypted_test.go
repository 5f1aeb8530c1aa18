package isp

import (
	"net/netip"
	"testing"

	"github.com/dnswatch/dnsloc/internal/cpe"
	"github.com/dnswatch/dnsloc/internal/dnsserver"
	"github.com/dnswatch/dnsloc/internal/dnswire"
	"github.com/dnswatch/dnsloc/internal/netsim"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// encHome is one home behind a middlebox segment: uplink -> ISP ->
// segment -> pass-through CPE -> host.
type encHome struct {
	net  *netsim.Network
	isp  *Network
	host *netsim.Host
}

func buildEncHome(t *testing.T, pol dnsserver.EncryptedPolicy) *encHome {
	t.Helper()
	w := &encHome{net: netsim.NewNetwork()}
	w.isp = Build(testConfig(), netsim.NewRouter("uplink"))
	seg := w.isp.AddSegment(&MiddleboxSpec{Encrypted: pol})
	home := w.isp.AllocHome(seg, false)
	d := cpe.Build(cpe.NewPlain("home-cpe", home.LANPrefix4, home.WANv4, w.isp.ResolverAddrPort()))
	w.isp.AttachCPE(seg, d, home)
	w.host = d.AttachHost("h", 0)
	if len(w.isp.Segments()) != 1 {
		t.Fatalf("%d segments, want 1", len(w.isp.Segments()))
	}
	return w
}

// TestSegmentEncryptedTerminate: a terminate middlebox DNATs foreign
// DoT sessions to the ISP resolver's stream endpoint, which handshakes
// behind an untrusted certificate and answers in-session with the
// resolver's persona — all spoofed back from the dialed address.
func TestSegmentEncryptedTerminate(t *testing.T) {
	w := buildEncHome(t, dnsserver.EncTerminate)

	pkts, err := w.host.Exchange(w.net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("hello through terminating segment: %v", err)
	}
	if pkts[0].Src != ap("9.9.9.9:853") {
		t.Errorf("helloAck source = %s, want spoofed 9.9.9.9:853", pkts[0].Src)
	}
	_, cert, ticket, ok := netsim.ParseStreamHelloAck(pkts[0].Payload)
	if !ok {
		t.Fatal("no helloAck")
	}
	if cert.Trusted || cert.Subject != w.isp.ResolverAddr {
		t.Errorf("cert = %+v, want the ISP resolver's untrusted one", cert)
	}

	framed, err := dnswire.AppendTCPFrame(nil, dnswire.MustPack(dnswire.NewChaosTXTQuery(1, "version.bind")))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err = w.host.Exchange(w.net, ap("9.9.9.9:853"), netsim.PackStreamData(netsim.ALPNDoT, ticket, framed),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("data frame through terminating segment: %v", err)
	}
	m, err := dnswire.Unpack(pkts[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if txt, ok := m.FirstTXT(); !ok || txt == "" {
		t.Error("terminated session did not answer with the ISP resolver persona")
	}
}

// TestSegmentEncryptedBlock: a blocking middlebox drops the stream —
// and leaves Do53 to the ISP's own resolver untouched.
func TestSegmentEncryptedBlock(t *testing.T) {
	w := buildEncHome(t, dnsserver.EncBlock)

	_, err := w.host.Exchange(w.net, ap("9.9.9.9:853"), netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != netsim.ErrTimeout {
		t.Fatalf("DoT hello through blocking segment = %v, want ErrTimeout", err)
	}

	vb := dnswire.MustPack(dnswire.NewChaosTXTQuery(2, "version.bind"))
	resps, err := w.host.Exchange(w.net, w.isp.ResolverAddrPort(), vb, netsim.ExchangeOptions{})
	if err != nil {
		t.Fatalf("Do53 to the ISP resolver under block policy: %v", err)
	}
	m, err := dnswire.Unpack(resps[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if txt, ok := m.FirstTXT(); !ok || txt == "" {
		t.Error("ISP resolver stopped answering version.bind under the block policy")
	}
}

// TestSegmentEncryptedTerminateSparesResolverSessions: sessions dialed
// AT the ISP resolver itself are not re-DNATed — the rule only matches
// foreign destinations.
func TestSegmentEncryptedTerminateSparesResolverSessions(t *testing.T) {
	w := buildEncHome(t, dnsserver.EncTerminate)
	target := netip.AddrPortFrom(w.isp.ResolverAddr, netsim.PortDoT)
	pkts, err := w.host.Exchange(w.net, target, netsim.PackStreamHello(netsim.ALPNDoT),
		netsim.ExchangeOptions{Proto: netsim.TCP})
	if err != nil {
		t.Fatalf("direct DoT to the resolver: %v", err)
	}
	if pkts[0].Src != target {
		t.Errorf("response source = %s, want the resolver's own %s", pkts[0].Src, target)
	}
}

// TestDetachCPEUnroutesHome: after DetachCPE the segment no longer
// delivers to the home's addresses (the resolver's answer falls back to
// the segment default route and dies in the border loop), HomeOf
// recomputes the detached home's addressing, and a freshly built CPE
// attached on the same addresses is reachable again.
func TestDetachCPEUnroutesHome(t *testing.T) {
	n := netsim.NewNetwork()
	isp := Build(testConfig(), netsim.NewRouter("uplink"))
	seg := isp.AddSegment(nil)
	isp.AllocHome(seg, false)
	home := isp.AllocHome(seg, true)
	if got := seg.HomeOf(home.WANv4, true); got != home {
		t.Fatalf("HomeOf = %+v, want %+v", got, home)
	}
	attach := func() *netsim.Host {
		cfg := cpe.NewPlain("home-cpe", home.LANPrefix4, home.WANv4, isp.ResolverAddrPort())
		cfg.LANAddr6 = home.LANPrefix6.Addr().Next()
		cfg.LANPrefix6 = home.LANPrefix6
		cfg.WANAddr6 = home.WANv6
		d := cpe.Build(cfg)
		isp.AttachCPE(seg, d, home)
		return d.AttachHost("h", 0)
	}
	vb := dnswire.MustPack(dnswire.NewChaosTXTQuery(3, "version.bind"))
	ask := func(h *netsim.Host, to netip.AddrPort) error {
		_, err := h.Exchange(n, to, vb, netsim.ExchangeOptions{})
		return err
	}
	v4, v6 := isp.ResolverAddrPort(), netip.AddrPortFrom(isp.ResolverAddr6, 53)

	host := attach()
	for _, to := range []netip.AddrPort{v4, v6} {
		if err := ask(host, to); err != nil {
			t.Fatalf("attached home asking %s: %v", to, err)
		}
	}
	isp.DetachCPE(seg, home)
	for _, to := range []netip.AddrPort{v4, v6} {
		if err := ask(host, to); err != netsim.ErrTimeout {
			t.Errorf("detached home asking %s = %v, want ErrTimeout", to, err)
		}
	}
	host = attach()
	for _, to := range []netip.AddrPort{v4, v6} {
		if err := ask(host, to); err != nil {
			t.Errorf("re-attached home asking %s: %v", to, err)
		}
	}
}
