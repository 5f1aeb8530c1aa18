package dnswire

import (
	"strings"
)

// maxNameWire is the maximum length of an encoded name (RFC 1035 §3.1).
const maxNameWire = 255

// maxLabel is the maximum length of a single label.
const maxLabel = 63

// Name is a fully-qualified domain name in presentation format without a
// trailing dot (the root name is the empty string). Comparison is
// case-insensitive per RFC 1035 §2.3.3; use Canonical for map keys.
type Name string

// Canonical lower-cases the name for case-insensitive comparison.
func (n Name) Canonical() Name { return Name(strings.ToLower(string(n))) }

// Equal reports whether two names are equal under DNS case-folding.
func (n Name) Equal(m Name) bool { return strings.EqualFold(string(n), string(m)) }

// Labels splits the name into its labels, most-specific first.
// The root name yields no labels.
func (n Name) Labels() []string {
	if n == "" || n == "." {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// Parent returns the name with its leftmost label removed, and true if a
// label was removed. The root name returns itself and false.
func (n Name) Parent() (Name, bool) {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return "", false
	}
	i := strings.IndexByte(s, '.')
	if i < 0 {
		return "", true
	}
	return Name(s[i+1:]), true
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	nn := strings.ToLower(strings.TrimSuffix(string(n), "."))
	zz := strings.ToLower(strings.TrimSuffix(string(zone), "."))
	if zz == "" {
		return true
	}
	if nn == zz {
		return true
	}
	return strings.HasSuffix(nn, "."+zz)
}

// validateName checks presentation-format constraints before encoding.
// It runs on every name pack, so it scans bytes in place rather than
// splitting into a label slice.
func validateName(n Name) error {
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return nil // root
	}
	labelLen := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			labelLen++
			continue
		}
		if labelLen == 0 {
			return ErrEmptyName
		}
		if labelLen > maxLabel {
			return ErrLabelTooLong
		}
		labelLen = 0
	}
	if labelLen == 0 {
		return ErrEmptyName
	}
	if labelLen > maxLabel {
		return ErrLabelTooLong
	}
	// Each label encodes as 1+len bytes (dots become length bytes, plus
	// one leading length byte), then the terminal root byte: len(s)+2.
	if len(s)+2 > maxNameWire {
		return ErrNameTooLong
	}
	return nil
}

// compressionMap tracks name suffixes already emitted into a message so
// later occurrences can be replaced by 14-bit pointers (RFC 1035 §4.1.4).
type compressionMap map[string]int

// packName appends the wire encoding of n to buf, using and updating cmp
// for compression. Pass a nil cmp to disable compression (required inside
// RDATA of types whose RDATA must not be compressed, e.g. in TXT there are
// no names, but SOA/NS/CNAME historically compress; modern practice for
// unknown types forbids it). base is the buffer offset where the message
// header starts: compression offsets are message-relative, so appending a
// message to a non-empty buffer must subtract the prefix. The nil-cmp path
// allocates nothing; the compressing path allocates only when a suffix
// actually contains uppercase (strings.ToLower returns lowercase ASCII
// input unchanged).
func packName(buf []byte, n Name, cmp compressionMap, base int) ([]byte, error) {
	if err := validateName(n); err != nil {
		return buf, err
	}
	s := strings.TrimSuffix(string(n), ".")
	if s == "" {
		return append(buf, 0), nil
	}
	for pos := 0; ; {
		if cmp != nil {
			suffix := strings.ToLower(s[pos:])
			if off, ok := cmp[suffix]; ok && off < 0x4000 {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf) - base; off < 0x4000 {
				cmp[suffix] = off
			}
		}
		end := strings.IndexByte(s[pos:], '.')
		if end < 0 {
			end = len(s)
		} else {
			end += pos
		}
		buf = append(buf, byte(end-pos))
		buf = append(buf, s[pos:end]...)
		if end == len(s) {
			break
		}
		pos = end + 1
	}
	return append(buf, 0), nil
}

// maxPointers bounds the compression pointers one name decode follows.
// Backward-only pointers already rule out cycles; the budget also caps
// the work a long pointer chain can cause.
const maxPointers = 127

// unpackName decodes a possibly-compressed name starting at off within
// msg. It returns the name and the offset of the first byte after the
// name's encoding at its original position (i.e. after the pointer if one
// was followed).
func unpackName(msg []byte, off int) (Name, int, error) {
	n, end, _, err := decodeName(msg, off)
	return n, end, err
}

// decodeName is unpackName that also reports how many compression
// pointers the decode followed, which nameMemo needs to enforce the
// pointer budget. The name is assembled in a stack buffer and converted
// to a string once: the wire limit (255 octets including the root byte)
// bounds the presentation form at 253 octets.
func decodeName(msg []byte, off int) (Name, int, int, error) {
	var buf [maxNameWire]byte
	n := 0    // presentation octets in buf
	seen := 0 // wire octets of the labels decoded so far
	ptrs := 0 // pointers followed, to detect loops cheaply
	end := -1 // resume offset after the first pointer
	for {
		if off >= len(msg) {
			return "", 0, 0, ErrShortMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return Name(buf[:n]), end, ptrs, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, 0, ErrShortMessage
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				// Forward or self pointers are malformed and would loop.
				return "", 0, 0, ErrBadPointer
			}
			ptrs++
			if ptrs > maxPointers {
				return "", 0, 0, ErrCompressionLoop
			}
			off = target
		case b&0xC0 != 0:
			// 0x40 and 0x80 label types were never standardized.
			return "", 0, 0, ErrBadRData
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, 0, ErrShortMessage
			}
			// RFC 1035 §3.1: the limit counts the terminal root byte.
			seen += l + 1
			if seen+1 > maxNameWire {
				return "", 0, 0, ErrNameTooLong
			}
			if n > 0 {
				buf[n] = '.'
				n++
			}
			n += copy(buf[n:], msg[off+1:off+1+l])
			off += 1 + l
		}
	}
}

// nameMemoSlots is how many decoded names one message remembers. The
// names a pointer most often targets are the question name and the
// first answer owner, both early in the message.
const nameMemoSlots = 4

// nameMemo lets Unpack share one string between an owner name and the
// earlier name its single compression pointer targets — the common
// shape of a response, whose answers point back at the question.
type nameMemo struct {
	n    int
	off  [nameMemoSlots]int
	name [nameMemoSlots]Name
	ptrs [nameMemoSlots]int
}

// unpack decodes the name at off exactly as unpackName does. A name that
// is a lone pointer to a remembered name reuses that name's string when
// the decode would succeed: following the pointer replays the
// remembered decode with one more pointer against the budget and
// nothing else changed. Every other case runs the full decoder, so the
// memo rejects exactly what unpackName rejects.
func (m *nameMemo) unpack(msg []byte, off int) (Name, int, error) {
	if off+1 < len(msg) && msg[off]&0xC0 == 0xC0 {
		target := int(msg[off]&0x3F)<<8 | int(msg[off+1])
		for i := 0; i < m.n; i++ {
			if m.off[i] == target && target < off && m.ptrs[i] < maxPointers {
				return m.name[i], off + 2, nil
			}
		}
	}
	name, end, ptrs, err := decodeName(msg, off)
	if err == nil && m.n < nameMemoSlots {
		m.off[m.n], m.name[m.n], m.ptrs[m.n] = off, name, ptrs
		m.n++
	}
	return name, end, err
}
