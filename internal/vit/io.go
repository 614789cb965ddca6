package vit

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
)

// The checkpoint format is a small self-describing binary container:
// a magic string, the parameter count, then (name, length, float64 data)
// records in the model's stable Params order. Only parameter *values*
// travel; the architecture comes from the Config the caller supplies at
// load time, which keeps the format trivial and version-stable.

const checkpointMagic = "QUQVIT01"

// CheckpointSize is the exact length of m's checkpoint in bytes.
func CheckpointSize(m Model) int {
	_, size := checkpointLayout(m)
	return size
}

func checkpointLayout(m Model) (count, size int) {
	size = len(checkpointMagic) + 4
	m.Params(func(name string, data []float64) {
		count++
		size += 4 + len(name) + 8 + 8*len(data)
	})
	return count, size
}

// AppendCheckpoint appends m's checkpoint to dst and returns the
// extended slice. dst grows at most once, by CheckpointSize(m); a caller
// that reserved that much already gets no allocation at all.
func AppendCheckpoint(dst []byte, m Model) []byte {
	count, size := checkpointLayout(m)
	dst = slices.Grow(dst, size)
	dst = append(dst, checkpointMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	m.Params(func(name string, data []float64) {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
		dst = append(dst, name...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(data)))
		off := len(dst)
		dst = dst[:off+8*len(data)]
		out := dst[off:]
		for i, v := range data {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	})
	return dst
}

// CheckpointMatches reports whether b is exactly m's checkpoint, the
// answer bytes.Equal(b, AppendCheckpoint(nil, m)) gives, without
// building one: it allocates nothing beyond the names Params formats.
// Values compare by their bits, so +0 and −0, or two NaN payloads,
// differ; record names, lengths and order must match too, so a
// checkpoint LoadCheckpoint accepts with its records reordered does
// not match.
func CheckpointMatches(m Model, b []byte) bool {
	if len(b) < len(checkpointMagic)+4 || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return false
	}
	count := binary.LittleEndian.Uint32(b[len(checkpointMagic):])
	rest := b[len(checkpointMagic)+4:]
	seen, ok := uint32(0), true
	m.Params(func(name string, data []float64) {
		if !ok {
			return
		}
		seen++
		head := 4 + len(name) + 8
		if len(rest) < head || (len(rest)-head)/8 < len(data) ||
			binary.LittleEndian.Uint32(rest) != uint32(len(name)) ||
			string(rest[4:4+len(name)]) != name ||
			binary.LittleEndian.Uint64(rest[4+len(name):]) != uint64(len(data)) {
			ok = false
			return
		}
		raw := rest[head:]
		for i, v := range data {
			if binary.LittleEndian.Uint64(raw[8*i:]) != math.Float64bits(v) {
				ok = false
				return
			}
		}
		rest = raw[8*len(data):]
	})
	return ok && seen == count && len(rest) == 0
}

// eachRecord walks the count records after the checkpoint header and
// hands fn each name and its raw little-endian float64 bytes. Every
// length is checked against the bytes left before it is used, and
// bytes after the last record are an error.
func eachRecord(b []byte, count uint32, fn func(name, raw []byte) error) error {
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return fmt.Errorf("vit: checkpoint truncated in record %d of %d", i, count)
		}
		nameLen := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(nameLen)+8 > uint64(len(b)) {
			return fmt.Errorf("vit: checkpoint record %d: name of %d bytes overruns the %d left", i, nameLen, len(b))
		}
		name := b[:nameLen]
		dataLen := binary.LittleEndian.Uint64(b[nameLen:])
		b = b[nameLen+8:]
		if dataLen > uint64(len(b))/8 {
			return fmt.Errorf("vit: parameter %q: %d values overrun the %d bytes left", name, dataLen, len(b))
		}
		if err := fn(name, b[:8*dataLen]); err != nil {
			return err
		}
		b = b[8*dataLen:]
	}
	if len(b) != 0 {
		return fmt.Errorf("vit: %d bytes after the last checkpoint record", len(b))
	}
	return nil
}

// LoadCheckpoint decodes a checkpoint into a freshly allocated model for
// cfg. Records may come in any order, but their names and sizes must
// match cfg's layout exactly: a missing, duplicate, unknown or
// wrong-length record is an error. The records' framing is walked
// before the model exists, so no header value sizes an allocation: a
// hostile or truncated checkpoint costs nothing, and a well-formed one
// costs the model plus a name index.
func LoadCheckpoint(cfg Config, b []byte) (Model, error) {
	if len(b) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("vit: checkpoint is %d bytes, shorter than its header", len(b))
	}
	if string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("vit: bad checkpoint magic %q", b[:len(checkpointMagic)])
	}
	count := binary.LittleEndian.Uint32(b[len(checkpointMagic):])
	records := b[len(checkpointMagic)+4:]
	if err := eachRecord(records, count, func(_, _ []byte) error { return nil }); err != nil {
		return nil, err
	}

	var m Model
	if cfg.Variant == VariantSwin {
		m = newSwin(cfg)
	} else {
		m = newViT(cfg)
	}
	index := make(map[string]int)
	var dsts [][]float64
	m.Params(func(name string, data []float64) {
		index[name] = len(dsts)
		dsts = append(dsts, data)
	})
	if uint64(count) != uint64(len(dsts)) {
		return nil, fmt.Errorf("vit: checkpoint has %d parameters, model has %d", count, len(dsts))
	}
	seen := make([]bool, len(dsts))
	err := eachRecord(records, count, func(name, raw []byte) error {
		i, ok := index[string(name)]
		if !ok {
			return fmt.Errorf("vit: checkpoint has unknown parameter %q", name)
		}
		if seen[i] {
			return fmt.Errorf("vit: checkpoint repeats parameter %q", name)
		}
		seen[i] = true
		dst := dsts[i]
		if len(raw) != 8*len(dst) {
			return fmt.Errorf("vit: parameter %q has %d values, model wants %d", name, len(raw)/8, len(dst))
		}
		for j := range dst {
			dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile writes m's checkpoint to path.
func SaveFile(m Model, path string) error {
	return os.WriteFile(path, AppendCheckpoint(nil, m), 0o666)
}

// LoadFile reads a model for cfg from the checkpoint at path.
func LoadFile(cfg Config, path string) (Model, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadCheckpoint(cfg, b)
}
