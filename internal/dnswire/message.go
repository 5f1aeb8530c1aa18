package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// maxUDPPayload is the classic 512-byte UDP limit; the simulator keeps
// messages under it, and Pack refuses to emit larger ones unless the
// message carries an OPT record advertising a bigger size.
const maxUDPPayload = 512

// Question is a single entry of the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s. %s %s", q.Name, q.Class, q.Type)
}

// Record is one resource record of an answer/authority/additional section.
type Record struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record's RR type, taken from its body.
func (r Record) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String renders the record in zone-file-like form.
func (r Record) String() string {
	return fmt.Sprintf("%s. %d %s %s %s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a whole DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// FirstTXT returns the joined strings of the first TXT answer, and
// whether one was present. Identity-query clients use this.
func (m *Message) FirstTXT() (string, bool) {
	for _, rr := range m.Answers {
		if txt, ok := rr.Data.(TXTRData); ok {
			return txt.Joined(), true
		}
	}
	return "", false
}

// AnswerAddrs collects all A/AAAA answer addresses in order.
func (m *Message) AnswerAddrs() []string {
	var out []string
	for _, rr := range m.Answers {
		switch d := rr.Data.(type) {
		case ARData:
			out = append(out, d.Addr.String())
		case AAAARData:
			out = append(out, d.Addr.String())
		}
	}
	return out
}

// Pack encodes the message into wire format with name compression across
// owner names. It refuses to emit messages that overflow the UDP payload
// limit rather than silently truncating; servers that need truncation set
// Header.Truncated and trim sections themselves first.
func (m *Message) Pack() ([]byte, error) { return m.PackTo(nil) }

// PackTo appends the message's wire encoding to buf and returns the
// extended slice (possibly reallocated, like append). A nil buf packs
// into a fresh slice pre-sized from a wire-length estimate. Transports
// use PackTo with recycled buffers to keep steady-state packing
// allocation-free; the returned slice aliases buf, so the usual append
// ownership rules apply.
func (m *Message) PackTo(buf []byte) ([]byte, error) {
	start := len(buf)
	buf, err := m.appendPacked(buf)
	if err != nil {
		return nil, err
	}
	if len(buf)-start > maxUDPPayload {
		return nil, fmt.Errorf("dnswire: message is %d bytes, exceeds %d-byte UDP payload", len(buf)-start, maxUDPPayload)
	}
	return buf, nil
}

// appendPacked is the shared pack core: header, questions, and sections
// appended to buf with compression offsets relative to the message start.
// No size ceiling — PackTo enforces the UDP limit, packUnbounded (TCP)
// does not.
func (m *Message) appendPacked(buf []byte) ([]byte, error) {
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	if buf == nil {
		buf = make([]byte, 0, m.wireEstimate())
	}
	start := len(buf)
	buf = h.pack(buf)
	cmp := getCompressionMap()
	defer putCompressionMap(cmp)
	var err error
	for _, q := range m.Questions {
		if buf, err = packName(buf, q.Name, cmp, start); err != nil {
			return nil, fmt.Errorf("packing question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = packRecord(buf, rr, cmp, start); err != nil {
				return nil, fmt.Errorf("packing record %q: %w", rr.Name, err)
			}
		}
	}
	return buf, nil
}

// wireEstimate upper-bounds the uncompressed wire size so PackTo's fresh
// allocations are single-shot in the common case. Names cost at most
// len+2 octets uncompressed; fixed RDATA shapes are exact and the rest
// falls back to a generous constant.
func (m *Message) wireEstimate() int {
	n := headerLen
	for _, q := range m.Questions {
		n += len(q.Name) + 2 + 4
	}
	for _, section := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			n += len(rr.Name) + 2 + 10 + rdataEstimate(rr.Data)
		}
	}
	return n
}

// rdataEstimate upper-bounds one record body's wire size.
func rdataEstimate(d RData) int {
	switch d := d.(type) {
	case ARData:
		return 4
	case AAAARData:
		return 16
	case TXTRData:
		n := 0
		for _, s := range d.Strings {
			n += 1 + len(s)
		}
		return n
	case CNAMERData:
		return len(d.Target) + 2
	case NSRData:
		return len(d.Host) + 2
	case PTRRData:
		return len(d.Target) + 2
	case MXRData:
		return 2 + len(d.Host) + 2
	case SOARData:
		return len(d.MName) + 2 + len(d.RName) + 2 + 20
	case OPTRData:
		return len(d.Options)
	case RawRData:
		return len(d.Data)
	case DNSKEYRData:
		return 4 + len(d.PublicKey)
	case DSRData:
		return 4 + len(d.Digest)
	case RRSIGRData:
		return 18 + len(d.SignerName) + 2 + len(d.Signature)
	default:
		return 64
	}
}

// packRecord appends one resource record. base is the message start
// within buf (see packName).
func packRecord(buf []byte, rr Record, cmp compressionMap, base int) ([]byte, error) {
	if rr.Data == nil {
		return buf, fmt.Errorf("%w: record %q has no rdata", ErrBadRData, rr.Name)
	}
	var err error
	if buf, err = packName(buf, rr.Name, cmp, base); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0) // RDLENGTH placeholder
	if buf, err = rr.Data.packRData(buf); err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return buf, fmt.Errorf("%w: rdata of %q is %d bytes", ErrBadRData, rr.Name, rdlen)
	}
	binary.BigEndian.PutUint16(buf[lenAt:lenAt+2], uint16(rdlen))
	return buf, nil
}

// Minimum wire sizes, used to bound Unpack's presizing: a question is
// at least a root name plus type and class; a record adds TTL and
// RDLENGTH.
const (
	minQuestionWire = 1 + 4
	minRecordWire   = 1 + 10
)

// Unpack decodes a wire-format message. It is strict: counted sections
// must be fully present, and trailing bytes are rejected.
//
// Sections are presized from the header counts, capped by what the
// remaining bytes could hold, so a header that lies about its counts
// cannot force a large allocation. The three record sections share one
// backing array, each capped at its own length so appending to one never
// overwrites the next. Sections with a zero count stay nil.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message)
	if err := m.Header.unpack(msg); err != nil {
		return nil, err
	}
	off := headerLen
	var memo nameMemo
	var err error
	if n := int(m.Header.QDCount); n > 0 {
		m.Questions = make([]Question, 0, min(n, (len(msg)-off)/minQuestionWire))
	}
	for i := 0; i < int(m.Header.QDCount); i++ {
		var q Question
		q, off, err = unpackQuestion(msg, off, &memo)
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := [...]struct {
		count int
		dst   *[]Record
		name  string
	}{
		{int(m.Header.ANCount), &m.Answers, "answer"},
		{int(m.Header.NSCount), &m.Authority, "authority"},
		{int(m.Header.ARCount), &m.Additional, "additional"},
	}
	var records []Record
	if n := sections[0].count + sections[1].count + sections[2].count; n > 0 {
		records = make([]Record, 0, min(n, (len(msg)-off)/minRecordWire))
	}
	for _, sec := range sections {
		start := len(records)
		for i := 0; i < sec.count; i++ {
			var rr Record
			rr, off, err = unpackRecord(msg, off, &memo)
			if err != nil {
				return nil, fmt.Errorf("%s record %d: %w", sec.name, i, err)
			}
			records = append(records, rr)
		}
		if sec.count > 0 {
			*sec.dst = records[start:len(records):len(records)]
		}
	}
	if off != len(msg) {
		return nil, ErrTrailingBytes
	}
	return m, nil
}

// unpackQuestion decodes one question entry starting at off.
func unpackQuestion(msg []byte, off int, memo *nameMemo) (Question, int, error) {
	n, off, err := memo.unpack(msg, off)
	if err != nil {
		return Question{}, 0, err
	}
	if off+4 > len(msg) {
		return Question{}, 0, ErrShortMessage
	}
	q := Question{
		Name:  n,
		Type:  Type(binary.BigEndian.Uint16(msg[off : off+2])),
		Class: Class(binary.BigEndian.Uint16(msg[off+2 : off+4])),
	}
	return q, off + 4, nil
}

// unpackRecord decodes one resource record starting at off.
func unpackRecord(msg []byte, off int, memo *nameMemo) (Record, int, error) {
	n, off, err := memo.unpack(msg, off)
	if err != nil {
		return Record{}, 0, err
	}
	if off+10 > len(msg) {
		return Record{}, 0, ErrShortMessage
	}
	typ := Type(binary.BigEndian.Uint16(msg[off : off+2]))
	class := Class(binary.BigEndian.Uint16(msg[off+2 : off+4]))
	ttl := binary.BigEndian.Uint32(msg[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8 : off+10]))
	off += 10
	data, err := unpackRData(msg, off, rdlen, typ)
	if err != nil {
		return Record{}, 0, err
	}
	return Record{Name: n, Class: class, TTL: ttl, Data: data}, off + rdlen, nil
}

// String renders the whole message in dig-like form for traces.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; %s\n", m.Header.String())
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";; question: %s\n", q)
	}
	for _, rr := range m.Answers {
		fmt.Fprintf(&sb, ";; answer: %s\n", rr)
	}
	for _, rr := range m.Authority {
		fmt.Fprintf(&sb, ";; authority: %s\n", rr)
	}
	for _, rr := range m.Additional {
		fmt.Fprintf(&sb, ";; additional: %s\n", rr)
	}
	return sb.String()
}
