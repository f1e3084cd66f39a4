package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile (profile.proto, as written by
// runtime/pprof) that layer attribution needs. The standard library has no
// public reader for the format, so this file decodes the protobuf itself.
type profile struct {
	sampleTypes []string // value index → type, e.g. "cpu" or "alloc_space"
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

// valueIndex returns the index of sample type typ, or an error.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (has %q)", typ, p.sampleTypes)
}

// parseProfile decodes a gzip-compressed or plain profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs        []string
		typeIdx     []uint64
		rawSamples  [][]byte
		rawLocs     [][]byte
		funcNameIdx = map[uint64]uint64{}
	)
	top := pbuf{b: data}
	for top.more() {
		field, wire := top.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := top.msg()
			for m.more() {
				if f, w := m.key(); f == 1 && w == 0 {
					typeIdx = append(typeIdx, m.varint())
				} else {
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
		case field == 2 && wire == 2:
			rawSamples = append(rawSamples, top.bytes())
		case field == 4 && wire == 2:
			rawLocs = append(rawLocs, top.bytes())
		case field == 5 && wire == 2: // function: id=1, name=2
			m := top.msg()
			var id, name uint64
			for m.more() {
				switch f, w := m.key(); {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			funcNameIdx[id] = name
			top.err = errors.Join(top.err, m.err)
		case field == 6 && wire == 2:
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	p := &profile{locations: map[uint64][]string{}}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, raw := range rawLocs { // location: id=1, line=4 (function_id=1)
		m := pbuf{b: raw}
		var id uint64
		var names []string
		for m.more() {
			switch f, w := m.key(); {
			case f == 1 && w == 0:
				id = m.varint()
			case f == 4 && w == 2:
				line := m.msg()
				for line.more() {
					if f, w := line.key(); f == 1 && w == 0 {
						names = append(names, str(funcNameIdx[line.varint()]))
					} else {
						line.skip(w)
					}
				}
				m.err = errors.Join(m.err, line.err)
			default:
				m.skip(w)
			}
		}
		if m.err != nil {
			return nil, fmt.Errorf("profile location: %w", m.err)
		}
		p.locations[id] = names
	}
	for _, raw := range rawSamples { // sample: location_id=1, value=2, label=3
		m := pbuf{b: raw}
		var s sample
		for m.more() {
			switch f, w := m.key(); {
			case f == 1:
				s.locs = m.uints(w, s.locs)
			case f == 2:
				for _, v := range m.uints(w, nil) {
					s.values = append(s.values, int64(v))
				}
			case f == 3 && w == 2: // label: key=1, str=2
				l := m.msg()
				var k, v uint64
				for l.more() {
					switch f, w := l.key(); {
					case f == 1 && w == 0:
						k = l.varint()
					case f == 2 && w == 0:
						v = l.varint()
					default:
						l.skip(w)
					}
				}
				m.err = errors.Join(m.err, l.err)
				if s.labels == nil {
					s.labels = map[string]string{}
				}
				s.labels[str(k)] = str(v)
			default:
				m.skip(w)
			}
		}
		if m.err != nil {
			return nil, fmt.Errorf("profile sample: %w", m.err)
		}
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("profile sample has %d values for %d types", len(s.values), len(p.sampleTypes))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// pbuf reads protobuf wire format. The first error sticks and ends every
// loop over more().
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			break
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errTruncated
	return 0
}

func (p *pbuf) key() (field int, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		p.err = errTruncated
		return nil
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b
}

func (p *pbuf) msg() pbuf {
	b := p.bytes()
	return pbuf{b: b, err: p.err}
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.err = errTruncated
			return
		}
		p.b = p.b[n:]
	case 2:
		p.bytes()
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
}

// uints appends a repeated varint field, packed (wire 2) or not (wire 0).
func (p *pbuf) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, p.varint())
	case 2:
		m := p.msg()
		for m.more() {
			dst = append(dst, m.varint())
		}
		p.err = errors.Join(p.err, m.err)
		return dst
	}
	p.skip(wire)
	if p.err == nil {
		p.err = fmt.Errorf("repeated varint field with wire type %d", wire)
	}
	return dst
}
