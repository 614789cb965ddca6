package baselines

import (
	"encoding/binary"
	"fmt"
	"math"

	"quq/internal/ptq"
)

// Wire tags for the baseline activation quantizers. Like the ptq tags
// they are part of the on-disk snapshot format: frozen, never reused.
const (
	tagAffine      = "apq-affine"
	tagBiScaled    = "biscaled"
	tagLog2        = "fqvit-log2"
	tagPTF         = "fqvit-ptf"
	tagTwinSoftmax = "ptq4vit-softmax"
	tagTwinGELU    = "ptq4vit-gelu"
)

// bitsOK bounds a decoded bit width so Apply's 1<<(bits-1) shifts cannot
// panic or overflow; calibrated models use single-digit widths.
func bitsOK(bits int) bool { return bits >= 1 && bits <= 62 }

// deltaOK reports whether a decoded scale factor is one calibration can
// make: positive and finite (quant.Uniform panics on Δ <= 0, and a QUQ
// record's Validate holds its slots to the same).
func deltaOK(d float64) bool { return d > 0 && !math.IsInf(d, 1) }

// MarshalQuantizer implements ptq.QuantizerCodec.
func (a affineQuantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 20)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.scale))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.zp))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.bits))
	return tagAffine, buf, nil
}

// MarshalQuantizer implements ptq.QuantizerCodec.
func (b biScaledQuantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 20+len(b.outlierChan))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.fineDelta))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.ratioLog))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.outlierChan)))
	for _, o := range b.outlierChan {
		if o {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return tagBiScaled, buf, nil
}

// MarshalQuantizer implements ptq.QuantizerCodec.
func (l log2Quantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.bits))
	return tagLog2, buf, nil
}

// MarshalQuantizer implements ptq.QuantizerCodec.
func (p ptfQuantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 16+4*len(p.shifts))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.delta))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.shifts)))
	for _, s := range p.shifts {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(s)))
	}
	return tagPTF, buf, nil
}

// MarshalQuantizer implements ptq.QuantizerCodec.
func (t twinSoftmaxQuantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 8)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.bits))
	return tagTwinSoftmax, buf, nil
}

// MarshalQuantizer implements ptq.QuantizerCodec.
func (t twinGELUQuantizer) MarshalQuantizer() (string, []byte, error) {
	buf := make([]byte, 0, 20)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.dNeg))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.dPos))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.bits))
	return tagTwinGELU, buf, nil
}

// UnmarshalQuantizer reverses MarshalQuantizer for the tags this package
// owns, keeping the baseline quantizer types unexported. ok=false means
// the tag is not a baselines tag; err!=nil means the tag matched but the
// payload is structurally invalid (lengths, bit widths, shift exponents
// and scale factors are bounds-checked so Apply cannot panic on decoded
// state).
func UnmarshalQuantizer(tag string, data []byte) (q ptq.TensorQuantizer, ok bool, err error) {
	switch tag {
	case tagAffine:
		if len(data) != 20 {
			return nil, true, fmt.Errorf("baselines: affine encoding is %d bytes, want 20", len(data))
		}
		a := affineQuantizer{
			scale: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
			zp:    int64(binary.LittleEndian.Uint64(data[8:16])),
			bits:  int(binary.LittleEndian.Uint32(data[16:20])),
		}
		if !bitsOK(a.bits) || !deltaOK(a.scale) {
			return nil, true, fmt.Errorf("baselines: affine bits %d / scale %v out of range", a.bits, a.scale)
		}
		return a, true, nil
	case tagBiScaled:
		if len(data) < 20 {
			return nil, true, fmt.Errorf("baselines: biscaled encoding is %d bytes, want >= 20", len(data))
		}
		b := biScaledQuantizer{
			fineDelta: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
			ratioLog:  int(binary.LittleEndian.Uint32(data[8:12])),
			bits:      int(binary.LittleEndian.Uint32(data[12:16])),
		}
		n := int(binary.LittleEndian.Uint32(data[16:20]))
		if len(data) != 20+n {
			return nil, true, fmt.Errorf("baselines: biscaled channel table is %d bytes, want %d", len(data)-20, n)
		}
		if !bitsOK(b.bits) || b.ratioLog < 0 || b.ratioLog > 62 || !deltaOK(b.fineDelta) {
			return nil, true, fmt.Errorf("baselines: biscaled bits %d / ratioLog %d / fineDelta %v out of range", b.bits, b.ratioLog, b.fineDelta)
		}
		b.outlierChan = make([]bool, n)
		for i := 0; i < n; i++ {
			switch data[20+i] {
			case 0:
			case 1:
				b.outlierChan[i] = true
			default:
				return nil, true, fmt.Errorf("baselines: biscaled channel byte %d is %d, want 0 or 1", i, data[20+i])
			}
		}
		return b, true, nil
	case tagLog2:
		if len(data) != 4 {
			return nil, true, fmt.Errorf("baselines: log2 encoding is %d bytes, want 4", len(data))
		}
		l := log2Quantizer{bits: int(binary.LittleEndian.Uint32(data))}
		if !bitsOK(l.bits) {
			return nil, true, fmt.Errorf("baselines: log2 bits %d out of range", l.bits)
		}
		return l, true, nil
	case tagPTF:
		if len(data) < 16 {
			return nil, true, fmt.Errorf("baselines: ptf encoding is %d bytes, want >= 16", len(data))
		}
		p := ptfQuantizer{
			delta: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
			bits:  int(binary.LittleEndian.Uint32(data[8:12])),
		}
		n := int(binary.LittleEndian.Uint32(data[12:16]))
		if len(data) != 16+4*n {
			return nil, true, fmt.Errorf("baselines: ptf shift table is %d bytes, want %d", len(data)-16, 4*n)
		}
		if !bitsOK(p.bits) || !deltaOK(p.delta) {
			return nil, true, fmt.Errorf("baselines: ptf bits %d / delta %v out of range", p.bits, p.delta)
		}
		p.shifts = make([]int, n)
		for i := 0; i < n; i++ {
			s := int(int32(binary.LittleEndian.Uint32(data[16+4*i : 20+4*i])))
			if s < 0 || s > 62 {
				return nil, true, fmt.Errorf("baselines: ptf shift %d out of range", s)
			}
			p.shifts[i] = s
		}
		return p, true, nil
	case tagTwinSoftmax:
		if len(data) != 8 {
			return nil, true, fmt.Errorf("baselines: twin-softmax encoding is %d bytes, want 8", len(data))
		}
		t := twinSoftmaxQuantizer{
			k:    int(binary.LittleEndian.Uint32(data[0:4])),
			bits: int(binary.LittleEndian.Uint32(data[4:8])),
		}
		if !bitsOK(t.bits) || t.k < 0 || t.k > 62 {
			return nil, true, fmt.Errorf("baselines: twin-softmax bits %d / k %d out of range", t.bits, t.k)
		}
		return t, true, nil
	case tagTwinGELU:
		if len(data) != 20 {
			return nil, true, fmt.Errorf("baselines: twin-gelu encoding is %d bytes, want 20", len(data))
		}
		t := twinGELUQuantizer{
			dNeg: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
			dPos: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
			bits: int(binary.LittleEndian.Uint32(data[16:20])),
		}
		if !bitsOK(t.bits) || !deltaOK(t.dNeg) || !deltaOK(t.dPos) {
			return nil, true, fmt.Errorf("baselines: twin-gelu bits %d / dNeg %v / dPos %v out of range", t.bits, t.dNeg, t.dPos)
		}
		return t, true, nil
	}
	return nil, false, nil
}
