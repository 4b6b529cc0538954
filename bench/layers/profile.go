// Package layers attributes CPU-profile samples to the simulator's layers.
// It reads the gzip'd profile.proto that runtime/pprof writes with a
// stdlib-only protobuf decoder, and assigns every sample to one layer by
// the rules in Classify.
package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sample is one profile sample: its stack as function names, leaf first
// (inlined callees before the function they were inlined into), and its
// values in the order of the profile's sample types.
type Sample struct {
	Stack  []string
	Values []int64
}

// Profile is the part of profile.proto that attribution needs.
type Profile struct {
	// SampleTypes names each value column, e.g. "samples/count" and
	// "cpu/nanoseconds".
	SampleTypes []string
	Samples     []Sample
}

// ValueIndex returns the column of the named sample type, written
// "type/unit" as in "cpu/nanoseconds", or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, t := range p.SampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto (github.com/google/pprof/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// Parse decodes a profile.proto, gzip'd or not.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
		data, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
	}
	var (
		strs      []string
		types     [][2]int64 // (type, unit) string indices
		samples   [][2][]uint64
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
	)
	err := walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			var vt [2]int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case valueTypeType:
					vt[0] = int64(v)
				case valueTypeUnit:
					vt[1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case profSample:
			var s [2][]uint64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case sampleLocationID:
					return appendVarints(&s[0], w, v, b)
				case sampleValue:
					return appendVarints(&s[1], w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walk(b, func(f, _ int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walk(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &Profile{}
	for _, vt := range types {
		p.SampleTypes = append(p.SampleTypes, str(vt[0])+"/"+str(vt[1]))
	}
	for _, s := range samples {
		var stack []string
		for _, loc := range s[0] {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		vals := make([]int64, len(s[1]))
		for i, v := range s[1] {
			vals[i] = int64(v)
		}
		p.Samples = append(p.Samples, Sample{Stack: stack, Values: vals})
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("layers: truncated protobuf")

// walk calls fn for every field of one protobuf message: v holds varint
// and fixed-width values, b the payload of length-delimited fields.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case wireFixed64:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case wireFixed32:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("layers: unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which encoders may
// write packed (one length-delimited run) or as one varint per element.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != wireBytes {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
