package dnswire

import (
	"bytes"
	"reflect"
	"testing"
)

// seedMessages builds a corpus of valid packets so the fuzzer starts
// from interesting shapes.
func seedMessages() [][]byte {
	var seeds [][]byte
	add := func(m *Message) {
		if b, err := m.Pack(); err == nil {
			seeds = append(seeds, b)
		}
	}
	add(NewQuery(1, "example.com", TypeA, ClassINET))
	add(NewChaosTXTQuery(2, "version.bind"))
	add(NewTXTResponse(NewChaosTXTQuery(3, "id.server"), "IAD"))
	add(NewErrorResponse(NewQuery(4, "x.test", TypeAAAA, ClassINET), RCodeRefused))
	q := NewQuery(5, "o-o.myaddr.l.google.com", TypeTXT, ClassINET)
	q.SetEDNS(4096, true)
	add(q)
	// Adversarial interceptor wire shapes (dnsserver.Adversary): forged
	// per-target personas for each resolver family, a replayed genuine
	// CHAOS identity, and the starved-budget NOTIMP a rate-limiting
	// interceptor answers with.
	add(NewTXTResponse(NewChaosTXTQuery(6, "id.server"), "res104.gru.rrdns.pch.net"))
	add(NewTXTResponse(NewChaosTXTQuery(7, "version.bind"), "Q9-P-7.3"))
	add(NewTXTResponse(NewChaosTXTQuery(8, "id.server"), "QJX"))
	add(NewErrorResponse(NewChaosTXTQuery(9, "hostname.bind"), RCodeNotImplemented))
	// The property suite's corner shapes (max label, max wire name,
	// EDNS/ECS, every RData, compression with mixed case) make good
	// starting points too.
	for _, m := range cornerMessages() {
		add(m)
	}
	return seeds
}

// FuzzUnpack asserts the decoder's core contract on arbitrary bytes:
// never panic, never loop, and — when a message decodes — re-encoding
// and re-decoding is stable (the canonical-encoder property).
func FuzzUnpack(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Legal: a decoded message can exceed the UDP encoding limit
			// after decompression.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not decode: %v", err)
		}
		again, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, again) {
			t.Fatalf("encoder not canonical:\n%x\n%x", repacked, again)
		}
	})
}

// FuzzUnpackName asserts the name decoder's bounds on raw fragments.
func FuzzUnpackName(f *testing.F) {
	f.Add([]byte{7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0}, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{1, 'a', 0xC0, 0x00}, 2)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		name, end, err := unpackName(data, off)
		if err != nil {
			return
		}
		if end < off || end > len(data) {
			t.Fatalf("end %d outside [%d,%d]", end, off, len(data))
		}
		if len(name) > 4*maxNameWire {
			t.Fatalf("decoded name absurdly long: %d", len(name))
		}
	})
}

// FuzzUnpackDifferential compares the decoder against the reference in
// reference_test.go: on any input both return reflect.DeepEqual
// messages or both return the same error, and the name decoders agree
// at every offset. It guards the presized sections and the owner-name
// memo, whose whole point is to change allocation without changing a
// single result.
func FuzzUnpackDifferential(f *testing.F) {
	for _, s := range seedMessages() {
		f.Add(s)
	}
	// An owner reached through 127 pointers, then an owner pointing at
	// it: the memo's pointer-budget edge.
	chain, last := pointerChain(127)
	f.Add(append([]byte{0, 1, 0x81, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}, chain...))
	f.Add(append(append([]byte(nil), chain...), 0xC0|byte(last>>8), byte(last)))
	f.Add([]byte{0, 1, 0x81, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unpack(data)
		want, refErr := refUnpack(data)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("Unpack err = %v, reference err = %v", err, refErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Unpack = %+v\nreference = %+v", got, want)
		}
		for off := 0; off < len(data); off++ {
			n, end, err := unpackName(data, off)
			rn, rend, rerr := refUnpackName(data, off)
			if n != rn || end != rend || err != rerr {
				t.Fatalf("unpackName(%d) = (%q, %d, %v), reference = (%q, %d, %v)", off, n, end, err, rn, rend, rerr)
			}
		}
	})
}
