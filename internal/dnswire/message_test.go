package dnswire

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestHeaderFlagsRoundTrip(t *testing.T) {
	h := Header{
		ID:                 0xBEEF,
		Opcode:             OpcodeStatus,
		RCode:              RCodeRefused,
		Response:           true,
		Authoritative:      true,
		Truncated:          true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		AuthenticData:      true,
		CheckingDisabled:   true,
		QDCount:            1, ANCount: 2, NSCount: 3, ARCount: 4,
	}
	buf := h.pack(nil)
	var got Header
	if err := got.unpack(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round trip:\n got %+v\nwant %+v", got, h)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(42, "example.com", TypeA, ClassINET)
	buf, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 42 || !got.Header.RecursionDesired || got.Header.Response {
		t.Errorf("header = %+v", got.Header)
	}
	want := Question{Name: "example.com", Type: TypeA, Class: ClassINET}
	if got.Question() != want {
		t.Errorf("question = %+v, want %+v", got.Question(), want)
	}
}

func TestChaosTXTQueryShape(t *testing.T) {
	q := NewChaosTXTQuery(7, "version.bind")
	if q.Header.RecursionDesired {
		t.Error("CHAOS query should not set RD")
	}
	if q.Question().Class != ClassCHAOS || q.Question().Type != TypeTXT {
		t.Errorf("question = %+v", q.Question())
	}
}

func TestTXTResponseRoundTrip(t *testing.T) {
	q := NewChaosTXTQuery(9, "id.server")
	resp := NewTXTResponse(q, "IAD")
	buf, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 9 || !got.Header.Response || got.Header.RCode != RCodeSuccess {
		t.Errorf("header = %+v", got.Header)
	}
	s, ok := got.FirstTXT()
	if !ok || s != "IAD" {
		t.Errorf("FirstTXT = %q,%t", s, ok)
	}
}

func TestTXTMultipleStrings(t *testing.T) {
	q := NewQuery(1, "debug.opendns.com", TypeTXT, ClassINET)
	resp := NewTXTResponse(q, "server m84.iad", "flags 20 0 2F")
	buf := MustPack(resp)
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	txt := got.Answers[0].Data.(TXTRData)
	if len(txt.Strings) != 2 || txt.Strings[0] != "server m84.iad" {
		t.Errorf("strings = %q", txt.Strings)
	}
	if txt.Joined() != "server m84.iadflags 20 0 2F" {
		t.Errorf("joined = %q", txt.Joined())
	}
}

func TestAddrResponseFamilies(t *testing.T) {
	qa := NewQuery(2, "example.com", TypeA, ClassINET)
	resp := NewAddrResponse(qa, 300, mustAddr("192.0.2.1"), mustAddr("2001:db8::1"))
	if len(resp.Answers) != 1 {
		t.Fatalf("A query got %d answers, want 1 (v6 addr skipped)", len(resp.Answers))
	}
	buf := MustPack(resp)
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if a := got.Answers[0].Data.(ARData).Addr; a != mustAddr("192.0.2.1") {
		t.Errorf("addr = %s", a)
	}

	qaaaa := NewQuery(3, "example.com", TypeAAAA, ClassINET)
	resp6 := NewAddrResponse(qaaaa, 300, mustAddr("192.0.2.1"), mustAddr("2001:db8::1"))
	if len(resp6.Answers) != 1 {
		t.Fatalf("AAAA query got %d answers", len(resp6.Answers))
	}
	got6, err := Unpack(MustPack(resp6))
	if err != nil {
		t.Fatal(err)
	}
	if a := got6.Answers[0].Data.(AAAARData).Addr; a != mustAddr("2001:db8::1") {
		t.Errorf("addr = %s", a)
	}
	if addrs := got6.AnswerAddrs(); !reflect.DeepEqual(addrs, []string{"2001:db8::1"}) {
		t.Errorf("AnswerAddrs = %v", addrs)
	}
}

func TestErrorResponses(t *testing.T) {
	q := NewQuery(4, "blocked.example", TypeA, ClassINET)
	for _, rc := range []RCode{RCodeServerFailure, RCodeNotImplemented, RCodeRefused, RCodeNameError} {
		resp := NewErrorResponse(q, rc)
		got, err := Unpack(MustPack(resp))
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.RCode != rc {
			t.Errorf("rcode = %s, want %s", got.Header.RCode, rc)
		}
		if len(got.Answers) != 0 {
			t.Errorf("error response has %d answers", len(got.Answers))
		}
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	records := []Record{
		{Name: "a.example.com", Class: ClassINET, TTL: 60, Data: ARData{Addr: mustAddr("198.51.100.7")}},
		{Name: "a.example.com", Class: ClassINET, TTL: 60, Data: AAAARData{Addr: mustAddr("2001:db8::2")}},
		{Name: "t.example.com", Class: ClassINET, TTL: 60, Data: TXTRData{Strings: []string{"hello", "world"}}},
		{Name: "c.example.com", Class: ClassINET, TTL: 60, Data: CNAMERData{Target: "target.example.org"}},
		{Name: "example.com", Class: ClassINET, TTL: 60, Data: NSRData{Host: "ns1.example.com"}},
		{Name: "7.2.0.192.in-addr.arpa", Class: ClassINET, TTL: 60, Data: PTRRData{Target: "host.example.com"}},
		{Name: "example.com", Class: ClassINET, TTL: 60, Data: MXRData{Preference: 10, Host: "mx.example.com"}},
		{Name: "example.com", Class: ClassINET, TTL: 60, Data: SOARData{
			MName: "ns1.example.com", RName: "hostmaster.example.com",
			Serial: 2021110201, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		}},
		{Name: "x.example.com", Class: ClassINET, TTL: 60, Data: RawRData{RRType: Type(999), Data: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 5, Response: true}, Answers: records}
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(records) {
		t.Fatalf("got %d answers, want %d", len(got.Answers), len(records))
	}
	for i, rr := range got.Answers {
		want := records[i]
		if rr.Type() != want.Type() || rr.TTL != want.TTL || !rr.Name.Equal(want.Name) {
			t.Errorf("record %d header mismatch: %s vs %s", i, rr, want)
		}
		if !reflect.DeepEqual(rr.Data, want.Data) {
			t.Errorf("record %d rdata = %#v, want %#v", i, rr.Data, want.Data)
		}
	}
}

func TestPackRejectsOversizedMessage(t *testing.T) {
	m := &Message{Header: Header{ID: 6, Response: true}}
	for i := 0; i < 40; i++ {
		m.Answers = append(m.Answers, Record{
			Name: "big.example.com", Class: ClassINET, TTL: 1,
			Data: TXTRData{Strings: []string{strings.Repeat("x", 200)}},
		})
	}
	if _, err := m.Pack(); err == nil {
		t.Fatal("oversized message packed without error")
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	buf := MustPack(NewQuery(7, "example.com", TypeA, ClassINET))
	buf = append(buf, 0xFF)
	if _, err := Unpack(buf); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("err = %v, want ErrTrailingBytes", err)
	}
}

func TestUnpackRejectsTruncatedSections(t *testing.T) {
	buf := MustPack(NewQuery(8, "example.com", TypeA, ClassINET))
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Unpack(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestUnpackRDataLengthMismatch(t *testing.T) {
	// Hand-build a record whose CNAME rdata claims more bytes than the
	// encoded name uses.
	resp := NewResponse(NewQuery(9, "a.example", TypeCNAME, ClassINET), RCodeSuccess)
	resp.Answers = []Record{{Name: "a.example", Class: ClassINET, TTL: 1, Data: CNAMERData{Target: "b.example"}}}
	buf := MustPack(resp)
	// RDLENGTH is the 2 bytes before the final encoded name. Inflate it.
	// Find it by repacking with a modified copy: simpler to flip the last
	// rdlength byte (big-endian low byte) upward.
	// The rdata (uncompressed "b.example.") is 11 bytes; locate 0x00 0x0B.
	idx := -1
	for i := 0; i+1 < len(buf); i++ {
		if buf[i] == 0x00 && buf[i+1] == 0x0B {
			idx = i
		}
	}
	if idx < 0 {
		t.Skip("could not locate rdlength; encoding changed")
	}
	buf[idx+1] = 0x0C
	if _, err := Unpack(buf); err == nil {
		t.Error("inflated rdlength accepted")
	}
}

func TestMessageStringRendering(t *testing.T) {
	q := NewQuery(10, "example.com", TypeA, ClassINET)
	resp := NewAddrResponse(q, 60, mustAddr("192.0.2.9"))
	s := resp.String()
	for _, want := range []string{"example.com. IN A", "192.0.2.9", "NOERROR"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// randomMessage builds a structurally valid random message.
func randomMessage(r *rand.Rand) *Message {
	m := &Message{
		Header: Header{
			ID:               uint16(r.Uint32()),
			Response:         r.Intn(2) == 0,
			RecursionDesired: r.Intn(2) == 0,
			RCode:            RCode(r.Intn(6)),
		},
	}
	nq := 1
	for i := 0; i < nq; i++ {
		m.Questions = append(m.Questions, Question{
			Name:  randomName(r),
			Type:  []Type{TypeA, TypeAAAA, TypeTXT, TypeCNAME}[r.Intn(4)],
			Class: []Class{ClassINET, ClassCHAOS}[r.Intn(2)],
		})
	}
	nan := r.Intn(4)
	for i := 0; i < nan; i++ {
		var data RData
		switch r.Intn(7) {
		case 0:
			var b [4]byte
			r.Read(b[:])
			data = ARData{Addr: netip.AddrFrom4(b)}
		case 1:
			var b [16]byte
			r.Read(b[:])
			b[0] = 0x20 // keep it a real v6 addr, not v4-mapped
			data = AAAARData{Addr: netip.AddrFrom16(b)}
		case 2:
			data = TXTRData{Strings: []string{string(randomName(r))}}
		case 3:
			data = CNAMERData{Target: randomName(r)}
		case 4:
			key := make([]byte, 32)
			r.Read(key)
			data = DNSKEYRData{Flags: DNSKEYFlagZone, Protocol: 3, Algorithm: AlgoEd25519, PublicKey: key}
		case 5:
			digest := make([]byte, 32)
			r.Read(digest)
			data = DSRData{KeyTag: uint16(r.Uint32()), Algorithm: AlgoEd25519, DigestType: 2, Digest: digest}
		case 6:
			sig := make([]byte, 64)
			r.Read(sig)
			data = RRSIGRData{
				TypeCovered: TypeA, Algorithm: AlgoEd25519, Labels: 2,
				OrigTTL: r.Uint32() % 86400, Expiration: SigHigh, Inception: SigLow,
				KeyTag: uint16(r.Uint32()), SignerName: randomName(r).Canonical(), Signature: sig,
			}
		}
		m.Answers = append(m.Answers, Record{
			Name: randomName(r), Class: ClassINET, TTL: r.Uint32() % 86400, Data: data,
		})
	}
	return m
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		m := randomMessage(r)
		buf, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(buf)
		if err != nil {
			return false
		}
		if got.Header.ID != m.Header.ID || got.Header.RCode != m.Header.RCode {
			return false
		}
		if len(got.Questions) != len(m.Questions) || len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range m.Answers {
			if !reflect.DeepEqual(got.Answers[i].Data, m.Answers[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRepackStable(t *testing.T) {
	// pack → unpack → pack must be byte-identical (canonical encoder).
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		m := randomMessage(r)
		b1, err := m.Pack()
		if err != nil {
			return false
		}
		m2, err := Unpack(b1)
		if err != nil {
			return false
		}
		b2, err := m2.Pack()
		if err != nil {
			return false
		}
		return string(b1) == string(b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackFuzzNoPanics(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	// Random soup.
	for i := 0; i < 5000; i++ {
		buf := make([]byte, r.Intn(128))
		r.Read(buf)
		Unpack(buf) //nolint:errcheck
	}
	// Mutated valid packets: flip bytes of a real message.
	base := MustPack(NewTXTResponse(NewChaosTXTQuery(1, "version.bind"), "dnsmasq-2.85"))
	for i := 0; i < 5000; i++ {
		buf := append([]byte(nil), base...)
		for k := 0; k < 1+r.Intn(3); k++ {
			buf[r.Intn(len(buf))] ^= byte(1 << r.Intn(8))
		}
		Unpack(buf) //nolint:errcheck
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || Type(777).String() != "TYPE777" {
		t.Error("Type.String misbehaves")
	}
	if ClassCHAOS.String() != "CH" || Class(777).String() != "CLASS777" {
		t.Error("Class.String misbehaves")
	}
	if RCodeNotImplemented.String() != "NOTIMP" || RCode(14).String() != "RCODE14" {
		t.Error("RCode.String misbehaves")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("Opcode.String misbehaves")
	}
	if !RCodeRefused.IsError() || RCodeSuccess.IsError() {
		t.Error("RCode.IsError misbehaves")
	}
}

// Fixed RRSIG timestamp sentinels for the property generator.
const (
	SigLow  = 2021110100
	SigHigh = 2031110100
)

// TestUnpackLyingHeader: counts are sized from the header but capped by
// the bytes present, so a header claiming 65535 entries in every section
// neither decodes nor makes Unpack allocate in proportion to the claim.
func TestUnpackLyingHeader(t *testing.T) {
	bare := []byte{0, 1, 0x81, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	answersOnly := append([]byte(nil), bare...)
	answersOnly[4], answersOnly[5] = 0, 0                                // no questions
	padded := append(append([]byte(nil), bare...), make([]byte, 100)...) // 100 root-name questions' worth of zeros
	for _, c := range []struct {
		name string
		msg  []byte
	}{{"all counts", bare}, {"answers only", answersOnly}, {"padded", padded}} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Unpack(c.msg); !errors.Is(err, ErrShortMessage) {
				t.Fatalf("err = %v, want ErrShortMessage", err)
			}
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				Unpack(c.msg) //nolint:errcheck // only measuring allocation
			}
			runtime.ReadMemStats(&after)
			// The padded message may presize 20 questions (100/5); a
			// 65535-record presize would be ~2.6 MB per call.
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
				t.Errorf("Unpack allocated %d bytes per call for a %d-byte message", per, len(c.msg))
			}
		})
	}
}

// TestUnpackSectionsStayApart: the record sections share one backing
// array, so each must be capped at its own length — appending to one
// section must never overwrite the next.
func TestUnpackSectionsStayApart(t *testing.T) {
	q := NewQuery(9, "example.com", TypeA, ClassINET)
	m := NewResponse(q, RCodeSuccess)
	m.Answers = []Record{{Name: "example.com", Class: ClassINET, TTL: 60, Data: ARData{Addr: mustAddr("192.0.2.1")}}}
	m.Authority = []Record{{Name: "example.com", Class: ClassINET, TTL: 60, Data: NSRData{Host: "ns.example.com"}}}
	got, err := Unpack(MustPack(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Additional != nil {
		t.Errorf("empty additional section = %v, want nil", got.Additional)
	}
	ns := got.Authority[0]
	got.Answers = append(got.Answers, Record{Name: "clobber", Class: ClassINET, Data: ARData{Addr: mustAddr("192.0.2.9")}})
	if !reflect.DeepEqual(got.Authority[0], ns) {
		t.Errorf("appending an answer overwrote the authority section: %v", got.Authority[0])
	}
}
