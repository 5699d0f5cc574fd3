package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU-profile samples to the repository's modules.
// It decodes the gzipped profile.proto that runtime/pprof writes with a
// small protobuf reader over the five message types the attribution
// needs (sample, location, line, function, string_table), so the
// benchmark depends on neither `go tool pprof` nor a protobuf module.

// internalPrefix marks a function of one of the simulator's modules.
const internalPrefix = "wgtt/internal/"

// runtimeModule collects samples whose stack holds no module frame: GC
// workers, the scheduler, and idle spinning.
const runtimeModule = "runtime"

// profile is the subset of a decoded profile.proto the attribution uses.
type profile struct {
	sampleTypes []string // sample value types, e.g. "samples", "cpu"
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name index into strs
	strs        []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// moduleCPU decodes a gzipped CPU profile and returns each module's
// share of CPU time, attributed to the innermost wgtt/internal/<module>
// frame of each sample, with runtimeModule for stacks that have none.
// The shares sum to 1; an empty profile yields an empty map.
func moduleCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := 0 // weight by CPU time when the profile carries it
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	totals := map[string]float64{}
	sum := 0.0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		w := float64(s.values[vi])
		totals[p.module(s)] += w
		sum += w
	}
	if sum > 0 {
		for m := range totals {
			totals[m] /= sum
		}
	}
	return totals, nil
}

// module names the innermost module frame of a sample.
func (p *profile) module(s profSample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			si := p.functions[fn]
			if si < 0 || int(si) >= len(p.strs) {
				continue
			}
			if m, ok := moduleOf(p.strs[si]); ok {
				return m
			}
		}
	}
	return runtimeModule
}

// moduleOf maps a function name such as
// "wgtt/internal/rf.(*Fading).Gain" to its module ("rf").
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			return eachField(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locations, w, v, d)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location{id = 1, line = 4}
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line{function_id = 1}
					return eachField(d, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		name := ""
		if i >= 0 && int(i) < len(p.strs) {
			name = p.strs[i]
		}
		p.sampleTypes = append(p.sampleTypes, name)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: varint
// fields pass their value in v, length-delimited fields their payload in
// data. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case wire64, wire32:
			size := 8
			if wire == wire32 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which an encoder may
// write either packed (one length-delimited run) or one varint at a time.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
