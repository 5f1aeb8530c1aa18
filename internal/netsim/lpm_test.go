package netsim

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// refRoute is the obviously-correct longest-prefix match: linear scan.
func refRoute(routes []Route, dst netip.Addr) *Route {
	var best *Route
	for i := range routes {
		if routes[i].Prefix.Contains(dst.Unmap()) {
			if best == nil || routes[i].Prefix.Bits() > best.Prefix.Bits() {
				best = &routes[i]
			}
		}
	}
	return best
}

// namedDev is a throwaway device distinguishable by name.
type namedDev string

func (d namedDev) DeviceName() string          { return string(d) }
func (d namedDev) Receive(ctx *Ctx, p *Packet) {}

// TestPropertyLPMMatchesLinearReference drives the hash-based
// longest-prefix-match against a linear reference on random tables.
func TestPropertyLPMMatchesLinearReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		router := NewRouter("lpm")
		var routes []Route
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			var p netip.Prefix
			if r.Intn(2) == 0 {
				var b [4]byte
				r.Read(b[:])
				p = netip.PrefixFrom(netip.AddrFrom4(b), r.Intn(33)).Masked()
			} else {
				var b [16]byte
				r.Read(b[:])
				p = netip.PrefixFrom(netip.AddrFrom16(b), r.Intn(129)).Masked()
			}
			dev := namedDev(p.String())
			router.AddRoute(p, dev)
			// Mirror the replace-on-duplicate semantics of insertRoute.
			replaced := false
			for j := range routes {
				if routes[j].Prefix == p {
					routes[j].Next = dev
					replaced = true
				}
			}
			if !replaced {
				routes = append(routes, Route{Prefix: p, Next: dev})
			}
		}
		// Probe with random addresses plus every route's own base.
		probes := make([]netip.Addr, 0, 60)
		for i := 0; i < 20; i++ {
			var b [4]byte
			r.Read(b[:])
			probes = append(probes, netip.AddrFrom4(b))
			var b6 [16]byte
			r.Read(b6[:])
			probes = append(probes, netip.AddrFrom16(b6))
		}
		for _, rt := range routes {
			probes = append(probes, rt.Prefix.Addr())
		}
		for _, dst := range probes {
			got := router.lookupRoute(dst)
			want := refRoute(routes, dst)
			switch {
			case got == nil && want == nil:
			case got == nil || want == nil:
				return false
			case got.Prefix != want.Prefix:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestLPMPrefersLongestAndReplacesDuplicates(t *testing.T) {
	router := NewRouter("x")
	a := namedDev("a")
	b := namedDev("b")
	c := namedDev("c")
	router.AddRoute(netip.MustParsePrefix("10.0.0.0/8"), a)
	router.AddRoute(netip.MustParsePrefix("10.1.0.0/16"), b)
	rt := router.lookupRoute(netip.MustParseAddr("10.1.2.3"))
	if rt == nil || rt.Next != Device(b) {
		t.Fatalf("lookup = %v, want /16 route", rt)
	}
	rt = router.lookupRoute(netip.MustParseAddr("10.2.2.3"))
	if rt == nil || rt.Next != Device(a) {
		t.Fatalf("lookup = %v, want /8 route", rt)
	}
	// Replacing the /16.
	router.AddRoute(netip.MustParsePrefix("10.1.0.0/16"), c)
	rt = router.lookupRoute(netip.MustParseAddr("10.1.2.3"))
	if rt == nil || rt.Next != Device(c) {
		t.Fatalf("lookup after replace = %v, want c", rt)
	}
}

// TestRemoveRouteFallsBackToDefault: removing a subscriber /32 (and
// /64) sends its traffic back to the segment default route, even when
// the removed route was the memoized hit, and a re-added route is found
// again.
func TestRemoveRouteFallsBackToDefault(t *testing.T) {
	router := NewRouter("seg")
	up, cpeA, cpeB := namedDev("border"), namedDev("cpe-a"), namedDev("cpe-b")
	router.AddDefaultRoute(up)
	wan := netip.MustParseAddr("33.0.1.7")
	wan6 := netip.MustParsePrefix("2a00:0:1:107::/64")
	host6 := netip.MustParseAddr("2a00:0:1:107::2")
	router.AddRoute(netip.PrefixFrom(wan, 32), cpeA)
	router.AddRoute(wan6, cpeA)

	next := func(dst netip.Addr) Device {
		t.Helper()
		rt := router.lookupRoute(dst)
		if rt == nil {
			t.Fatalf("no route to %s", dst)
		}
		return rt.Next
	}
	// Prime the memo with hits on the routes about to go.
	if next(wan) != Device(cpeA) || next(host6) != Device(cpeA) {
		t.Fatal("subscriber routes not installed")
	}

	router.RemoveRoute(netip.PrefixFrom(wan, 32))
	router.RemoveRoute(wan6)
	for _, dst := range []netip.Addr{wan, host6} {
		if got := next(dst); got != Device(up) {
			t.Errorf("after removal %s -> %s, want the default route", dst, got.DeviceName())
		}
	}
	// Removing an absent route is a no-op.
	router.RemoveRoute(netip.MustParsePrefix("10.9.9.9/32"))
	if got := next(wan); got != Device(up) {
		t.Errorf("after no-op removal %s -> %s, want the default route", wan, got.DeviceName())
	}

	router.AddRoute(netip.PrefixFrom(wan, 32), cpeB)
	router.AddRoute(wan6, cpeB)
	if next(wan) != Device(cpeB) || next(host6) != Device(cpeB) {
		t.Error("re-added subscriber routes not found")
	}
}

// TestRemoveRouteClearsMemoAtOnce: the lookup memo drops a removed
// route immediately, so it neither serves the stale hit nor keeps the
// removed next hop reachable until the router's next lookup.
func TestRemoveRouteClearsMemoAtOnce(t *testing.T) {
	router := NewRouter("seg")
	router.AddDefaultRoute(namedDev("border"))
	p := netip.MustParsePrefix("33.0.1.7/32")
	router.AddRoute(p, namedDev("cpe"))
	router.lookupRoute(p.Addr())
	router.RemoveRoute(p)
	for i := range router.cache4.rt {
		if rt := router.cache4.rt[i]; rt != nil && rt.Prefix == p {
			t.Fatalf("memo slot %d still holds the removed route", i)
		}
	}
}
