package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// The straightforward decoder Unpack replaced, kept as the reference the
// differential fuzz target compares against (as calqueue_test.go keeps
// the binary heap): sections grow by append, every name is decoded in
// full through a strings.Builder, and no string is shared. It carries
// the RFC 1035 §3.1 name-length fix (the root byte counts towards the
// 255-octet limit), which is part of the decoder's contract. RDATA
// decoding is shared: unpackRData is the same code in both.

// refUnpack is the reference Unpack.
func refUnpack(msg []byte) (*Message, error) {
	var m Message
	if err := m.Header.unpack(msg); err != nil {
		return nil, err
	}
	off := headerLen
	var err error
	for i := 0; i < int(m.Header.QDCount); i++ {
		var q Question
		q, off, err = refUnpackQuestion(msg, off)
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := []struct {
		count int
		dst   *[]Record
		name  string
	}{
		{int(m.Header.ANCount), &m.Answers, "answer"},
		{int(m.Header.NSCount), &m.Authority, "authority"},
		{int(m.Header.ARCount), &m.Additional, "additional"},
	}
	for _, sec := range sections {
		for i := 0; i < sec.count; i++ {
			var rr Record
			rr, off, err = refUnpackRecord(msg, off)
			if err != nil {
				return nil, fmt.Errorf("%s record %d: %w", sec.name, i, err)
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	if off != len(msg) {
		return nil, ErrTrailingBytes
	}
	return &m, nil
}

func refUnpackQuestion(msg []byte, off int) (Question, int, error) {
	n, off, err := refUnpackName(msg, off)
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

func refUnpackRecord(msg []byte, off int) (Record, int, error) {
	n, off, err := refUnpackName(msg, off)
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

// refUnpackName is the reference unpackName.
func refUnpackName(msg []byte, off int) (Name, int, error) {
	var sb strings.Builder
	seen := 0      // decoded octets, to bound the loop
	ptrBudget := 0 // pointers followed, to detect loops cheaply
	end := -1      // resume offset after the first pointer
	for {
		if off >= len(msg) {
			return "", 0, ErrShortMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			return Name(sb.String()), end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrShortMessage
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				return "", 0, ErrBadPointer
			}
			ptrBudget++
			if ptrBudget > 127 {
				return "", 0, ErrCompressionLoop
			}
			off = target
		case b&0xC0 != 0:
			return "", 0, ErrBadRData
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrShortMessage
			}
			seen += l + 1
			if seen+1 > maxNameWire { // +1: the root byte
				return "", 0, ErrNameTooLong
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(msg[off+1 : off+1+l])
			off += 1 + l
		}
	}
}
