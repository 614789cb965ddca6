package ptq

import (
	"fmt"

	"quq/internal/quant"
)

// TagQUQ is the wire tag of QUQTensorQuantizer, the one activation
// quantizer this package serializes; every per-tensor uniform site is
// one too. Tags are part of the snapshot format: renaming one
// invalidates every snapshot on disk, so treat them as frozen. The
// retired "uniform" tag decodes as unknown, and Store.Load quarantines
// its files.
const TagQUQ = "quq"

// QuantizerCodec is implemented by every concrete TensorQuantizer that
// can round-trip through the snapshot store. The tag names the concrete
// type; data is a canonical little-endian encoding of its parameters,
// so byte-identical calibrations serialize to byte-identical records
// (the property content-addressed snapshot digests rely on).
type QuantizerCodec interface {
	MarshalQuantizer() (tag string, data []byte, err error)
}

// MarshalQuantizer serializes any codec-capable TensorQuantizer. A
// quantizer that does not implement QuantizerCodec is not snapshottable;
// the caller decides whether that aborts the snapshot or the whole
// encode (the registry skips persistence but keeps serving).
func MarshalQuantizer(q TensorQuantizer) (string, []byte, error) {
	c, ok := q.(QuantizerCodec)
	if !ok {
		return "", nil, fmt.Errorf("ptq: quantizer %T does not implement QuantizerCodec", q)
	}
	return c.MarshalQuantizer()
}

// MarshalQuantizer implements QuantizerCodec.
func (q QUQTensorQuantizer) MarshalQuantizer() (string, []byte, error) {
	data, err := q.Params.MarshalBinary()
	if err != nil {
		return "", nil, err
	}
	return TagQUQ, data, nil
}

// UnmarshalQuantizer reverses MarshalQuantizer for the tag this package
// owns. ok=false means the tag belongs to another package (the caller
// should try the baselines decoder); err!=nil means the tag matched but
// the payload is malformed.
func UnmarshalQuantizer(tag string, data []byte) (q TensorQuantizer, ok bool, err error) {
	if tag != TagQUQ {
		return nil, false, nil
	}
	p, err := quant.UnmarshalParams(data)
	if err != nil {
		return nil, true, err
	}
	if err := p.Validate(); err != nil {
		return nil, true, fmt.Errorf("ptq: decoded QUQ params invalid: %w", err)
	}
	return QUQTensorQuantizer{Params: p}, true, nil
}
