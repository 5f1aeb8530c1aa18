package dnswire

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNameLabels(t *testing.T) {
	cases := []struct {
		in   Name
		want []string
	}{
		{"", nil},
		{".", nil},
		{"com", []string{"com"}},
		{"example.com", []string{"example", "com"}},
		{"example.com.", []string{"example", "com"}},
		{"a.b.c.d", []string{"a", "b", "c", "d"}},
	}
	for _, c := range cases {
		if got := c.in.Labels(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Labels(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNameParent(t *testing.T) {
	cases := []struct {
		in     Name
		want   Name
		wantOK bool
	}{
		{"", "", false},
		{"com", "", true},
		{"example.com", "com", true},
		{"www.example.com", "example.com", true},
	}
	for _, c := range cases {
		got, ok := c.in.Parent()
		if got != c.want || ok != c.wantOK {
			t.Errorf("Parent(%q) = %q,%t, want %q,%t", c.in, got, ok, c.want, c.wantOK)
		}
	}
}

func TestNameIsSubdomainOf(t *testing.T) {
	cases := []struct {
		name, zone Name
		want       bool
	}{
		{"example.com", "com", true},
		{"example.com", "example.com", true},
		{"Example.COM", "example.com", true},
		{"example.com", "", true},
		{"example.com", "org", false},
		{"notexample.com", "example.com", false},
		{"a.example.com", "example.com", true},
		{"com", "example.com", false},
	}
	for _, c := range cases {
		if got := c.name.IsSubdomainOf(c.zone); got != c.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %t, want %t", c.name, c.zone, got, c.want)
		}
	}
}

func TestPackNameRoot(t *testing.T) {
	buf, err := packName(nil, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1 || buf[0] != 0 {
		t.Fatalf("root name encoded as %v, want [0]", buf)
	}
}

func TestPackNameRejectsBadNames(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := packName(nil, Name(long+".com"), nil, 0); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("oversized label: err = %v, want ErrLabelTooLong", err)
	}
	if _, err := packName(nil, "a..b", nil, 0); !errors.Is(err, ErrEmptyName) {
		t.Errorf("empty label: err = %v, want ErrEmptyName", err)
	}
	var parts []string
	for i := 0; i < 60; i++ {
		parts = append(parts, "abcd")
	}
	if _, err := packName(nil, Name(strings.Join(parts, ".")), nil, 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("oversized name: err = %v, want ErrNameTooLong", err)
	}
	// One octet past the limit: labels 63/63/63/62 encode to 256 octets
	// with the root byte (TestUnpackNameMalformed rejects the same name).
	x := func(n int) string { return strings.Repeat("x", n) }
	if _, err := packName(nil, Name(x(maxLabel)+"."+x(maxLabel)+"."+x(maxLabel)+"."+x(maxLabel-1)), nil, 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("256-octet name: err = %v, want ErrNameTooLong", err)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []Name{
		"",
		"com",
		"example.com",
		"www.example.com",
		"id.server",
		"o-o.myaddr.l.google.com",
		"debug.opendns.com",
		"version.bind",
		"whoami.akamai.com",
		"xn--nxasmq6b.example",
	}
	for _, n := range names {
		buf, err := packName(nil, n, nil, 0)
		if err != nil {
			t.Fatalf("pack %q: %v", n, err)
		}
		got, end, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpack %q: %v", n, err)
		}
		if end != len(buf) {
			t.Errorf("unpack %q consumed %d of %d bytes", n, end, len(buf))
		}
		if !got.Equal(n) {
			t.Errorf("round trip %q = %q", n, got)
		}
	}
}

func TestCompressionPointerRoundTrip(t *testing.T) {
	// Pack two names sharing a suffix into one buffer; the second must be
	// shorter than its uncompressed form and still decode correctly.
	cmp := compressionMap{}
	buf, err := packName(nil, "www.example.com", cmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := len(buf)
	buf, err = packName(buf, "mail.example.com", cmp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-first >= len("mail.example.com")+2 {
		t.Errorf("second name not compressed: %d bytes", len(buf)-first)
	}
	n1, end1, err := unpackName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !n1.Equal("www.example.com") || end1 != first {
		t.Errorf("first name = %q end=%d", n1, end1)
	}
	n2, end2, err := unpackName(buf, first)
	if err != nil {
		t.Fatal(err)
	}
	if !n2.Equal("mail.example.com") || end2 != len(buf) {
		t.Errorf("second name = %q end=%d", n2, end2)
	}
}

func TestCompressionIdenticalName(t *testing.T) {
	cmp := compressionMap{}
	buf, _ := packName(nil, "a.example.com", cmp, 0)
	n := len(buf)
	buf, _ = packName(buf, "a.example.com", cmp, 0)
	if len(buf)-n != 2 {
		t.Errorf("identical repeat encoded as %d bytes, want 2 (pure pointer)", len(buf)-n)
	}
}

func TestUnpackNameMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrShortMessage},
		{"truncated label", []byte{5, 'a', 'b'}, ErrShortMessage},
		{"missing terminator", []byte{1, 'a'}, ErrShortMessage},
		{"self pointer", []byte{0xC0, 0x00}, ErrBadPointer},
		{"forward pointer", []byte{0xC0, 0x10, 0}, ErrBadPointer},
		{"truncated pointer", []byte{0xC0}, ErrShortMessage},
		{"reserved label type", []byte{0x40, 0}, ErrBadRData},
		// Labels 63/63/63/62 plus the root byte: 256 wire octets, one
		// past RFC 1035 §3.1's limit (Pack rejects the same name).
		{"256-octet name", wireLabels(maxLabel, maxLabel, maxLabel, maxLabel-1), ErrNameTooLong},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := unpackName(c.in, 0)
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// wireLabels encodes an uncompressed name of the given label lengths.
func wireLabels(lens ...int) []byte {
	var buf []byte
	for _, l := range lens {
		buf = append(buf, byte(l))
		buf = append(buf, strings.Repeat("x", l)...)
	}
	return append(buf, 0)
}

// pointerChain returns a buffer holding the name "a" at offset 0 and
// then n pointers, each to the one before (the first to offset 0), and
// the offset of the last pointer: decoding from it follows n pointers.
func pointerChain(n int) ([]byte, int) {
	buf := []byte{1, 'a', 0}
	prev := 0
	for i := 0; i < n; i++ {
		at := len(buf)
		buf = append(buf, 0xC0|byte(prev>>8), byte(prev))
		prev = at
	}
	return buf, prev
}

func TestNameMemoMatchesUnpackName(t *testing.T) {
	// An owner that points at a remembered name reuses its string only
	// when the full decode would succeed. The pointer budget is the edge:
	// a remembered name reached through 126 pointers is one pointer short
	// of the limit, through 127 it is at the limit and one more fails.
	for _, n := range []int{0, 1, 126, 127} {
		buf, last := pointerChain(n)
		buf = append(buf, 0xC0|byte(last>>8), byte(last))
		owner := len(buf) - 2
		var memo nameMemo
		if _, _, err := memo.unpack(buf, last); err != nil {
			t.Fatalf("chain %d: %v", n, err)
		}
		want, wantEnd, wantErr := unpackName(buf, owner)
		got, end, err := memo.unpack(buf, owner)
		if got != want || end != wantEnd || err != wantErr {
			t.Errorf("chain %d: memo = (%q, %d, %v), unpackName = (%q, %d, %v)",
				n, got, end, err, want, wantEnd, wantErr)
		}
		if (n == 127) != errors.Is(err, ErrCompressionLoop) {
			t.Errorf("chain %d: err = %v", n, err)
		}
	}
}

func TestUnpackNamePointerChainBounded(t *testing.T) {
	// A long backward pointer chain must terminate with an error rather
	// than hang: each pointer at offset 2i points to offset 2(i-1), and
	// offset 0 holds another pointer to... offset 0 is a self-pointer,
	// so build: [0]=label 'a' terminator chain start.
	buf := []byte{1, 'a', 0} // name at 0
	off := len(buf)
	prev := 0
	for i := 0; i < 200; i++ {
		buf = append(buf, 0xC0|byte(prev>>8), byte(prev))
		prev = off
		off += 2
	}
	// Decoding the final pointer walks 200 pointers back to the label.
	n, _, err := unpackName(buf, len(buf)-2)
	if err == nil {
		// Chain longer than budget must error; budget is 127.
		t.Fatalf("200-pointer chain decoded to %q, want error", n)
	}
	if !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("err = %v, want ErrCompressionLoop", err)
	}
}

// randomName generates a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	nlabels := 1 + r.Intn(5)
	labels := make([]string, nlabels)
	for i := range labels {
		l := 1 + r.Intn(12)
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet)-1)] // avoid '-' edge for simplicity
		}
		labels[i] = string(b)
	}
	return Name(strings.Join(labels, "."))
}

func TestPropertyNameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		n := randomName(r)
		buf, err := packName(nil, n, nil, 0)
		if err != nil {
			return false
		}
		got, end, err := unpackName(buf, 0)
		return err == nil && end == len(buf) && got.Equal(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompressedRoundTrip(t *testing.T) {
	// Packing k random names with a shared compression map and decoding
	// each from its recorded offset must reproduce every name.
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		k := 2 + r.Intn(6)
		cmp := compressionMap{}
		var buf []byte
		offs := make([]int, k)
		names := make([]Name, k)
		for i := 0; i < k; i++ {
			names[i] = randomName(r)
			if r.Intn(2) == 0 && i > 0 {
				// Force suffix sharing half the time.
				names[i] = Name("x" + string(rune('a'+i)) + "." + string(names[i-1]))
			}
			offs[i] = len(buf)
			var err error
			buf, err = packName(buf, names[i], cmp, 0)
			if err != nil {
				return false
			}
		}
		for i := 0; i < k; i++ {
			got, _, err := unpackName(buf, offs[i])
			if err != nil || !got.Equal(names[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackNameFuzzNoPanics(t *testing.T) {
	// Random byte soup must never panic or loop, only return errors or names.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		unpackName(buf, 0) //nolint:errcheck // only checking for panics/hangs
	}
}
