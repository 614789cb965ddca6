// Package snapstore persists calibrated models as content-addressed
// snapshot files so a crashed worker can warm-restart without redoing
// calibration. A snapshot is a versioned header, the SHA-256 digest of
// the payload, and the payload itself: the registry key, the quantized
// model's weights (the vit checkpoint format), every activation
// quantizer, and the integer-path weight parameters. The encoding is
// canonical — map entries are written in sorted key order and all
// numbers are fixed-width little-endian — so byte-identical calibration
// builds (the replication layer's core guarantee) produce byte-identical
// snapshots, and the digest doubles as a cross-replica equality check
// for anti-entropy repair.
//
// Files are written atomically (write temp, fsync, rename) and verified
// digest-first on read: a snapshot whose digest does not match is
// quarantined, never parsed and never served.
package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"quq/internal/baselines"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/vit"
)

// Format constants. Version bumps when the payload layout changes; old
// versions are rejected (quarantined), not migrated — the worker simply
// recalibrates, which is the state it would have been in without a
// snapshot.
const (
	magic   = "QUQSNAP1"
	version = 1

	// headerBytes is magic + version u32 + digest[32] + payload-length u64.
	headerBytes = 8 + 4 + 32 + 8

	// maxStringLen bounds every length-prefixed string in the payload
	// (keys, method names, quantizer tags).
	maxStringLen = 4096
	// maxBlobLen bounds the model checkpoint and each quantizer record.
	maxBlobLen = 1 << 28
	// maxEntries bounds the activation and weight-parameter counts.
	maxEntries = 1 << 20

	// MaxFileBytes bounds a snapshot file image wherever one arrives from
	// outside (POST /v1/snapshot): the header, the largest model blob
	// Decode accepts, and as much again for the quantizer records around
	// it — kilobytes in practice.
	MaxFileBytes = headerBytes + 2*maxBlobLen
)

// Entry is one decoded snapshot.
type Entry struct {
	// Key is the registry wire key ("Config/Method/wNaN/regime") the
	// snapshot was built for.
	Key string
	// Config is the model-zoo configuration name the weights belong to.
	Config string
	// Model is the reconstructed quantized model (float activations
	// path; the caller re-arms the integer path if it wants one).
	Model *ptq.QuantizedModel
	// Digest is the hex SHA-256 of the payload — the snapshot's content
	// address.
	Digest string
}

// Encode serializes qm under the given registry key and returns the
// complete snapshot file image plus its hex digest. Encoding fails if
// any activation quantizer is not snapshot-capable; the caller keeps
// serving from memory in that case.
//
// The metadata and quantizer records (kilobytes) are marshaled first;
// the file image is then one allocation sized from them and the model's
// checkpoint, with the header reserved up front and filled in once the
// payload has been hashed in place.
func Encode(key string, qm *ptq.QuantizedModel) (fileBytes []byte, digestHex string, err error) {
	if qm == nil {
		return nil, "", fmt.Errorf("snapstore: encode nil model")
	}
	configName := qm.Model.Config().Name
	if err := checkStrings(key, configName, qm.Method); err != nil {
		return nil, "", err
	}
	sites, err := appendSites(nil, qm)
	if err != nil {
		return nil, "", err
	}
	head := appendString(appendString(appendString(nil, key), configName), qm.Method)
	head = binary.LittleEndian.AppendUint32(head, uint32(qm.Bits))
	head = binary.LittleEndian.AppendUint32(head, uint32(qm.Regime))
	ckpt := vit.CheckpointSize(qm.Model)

	out := make([]byte, headerBytes, headerBytes+len(head)+8+ckpt+len(sites))
	out = append(out, head...)
	out = binary.LittleEndian.AppendUint64(out, uint64(ckpt))
	out = vit.AppendCheckpoint(out, qm.Model)
	out = append(out, sites...)

	payload := out[headerBytes:]
	sum := sha256.Sum256(payload)
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[8:], version)
	copy(out[12:44], sum[:])
	binary.LittleEndian.PutUint64(out[44:], uint64(len(payload)))
	return out, hex.EncodeToString(sum[:]), nil
}

// checkStrings bounds every length-prefixed string before it is written.
func checkStrings(ss ...string) error {
	for _, s := range ss {
		if len(s) > maxStringLen {
			return fmt.Errorf("snapstore: string field %d bytes exceeds %d", len(s), maxStringLen)
		}
	}
	return nil
}

// appendString appends s with its u32 length prefix; callers bound s
// with checkStrings first.
func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendSites appends the payload's tail after the model checkpoint:
// every activation quantizer, then the integer-path weight parameters,
// each in sorted site order.
func appendSites(dst []byte, qm *ptq.QuantizedModel) ([]byte, error) {
	actKeys := make([]string, 0, len(qm.Acts))
	for k := range qm.Acts {
		actKeys = append(actKeys, k)
	}
	sort.Strings(actKeys)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(actKeys)))
	for _, k := range actKeys {
		tag, data, err := ptq.MarshalQuantizer(qm.Acts[k])
		if err != nil {
			return nil, fmt.Errorf("snapstore: site %s: %w", k, err)
		}
		if err := checkStrings(k, tag); err != nil {
			return nil, err
		}
		dst = appendString(dst, k)
		dst = appendString(dst, tag)
		dst = appendBlob(dst, data)
	}

	if qm.WeightParams == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	wpKeys := make([]string, 0, len(qm.WeightParams))
	for k := range qm.WeightParams {
		wpKeys = append(wpKeys, k)
	}
	sort.Strings(wpKeys)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(wpKeys)))
	for _, k := range wpKeys {
		data, err := qm.WeightParams[k].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("snapstore: weight site %s: %w", k, err)
		}
		if err := checkStrings(k); err != nil {
			return nil, err
		}
		dst = appendString(dst, k)
		dst = appendBlob(dst, data)
	}
	return dst, nil
}

// Decode parses and verifies one snapshot file image. The payload
// digest is checked before any parsing, so a corrupt or truncated file
// is rejected by the hash comparison alone — mutated bytes never reach
// the model decoder.
func Decode(data []byte) (*Entry, error) {
	return decode(data, nil)
}

// decode is Decode drawing the entry's model from pool, which a nil
// pool leaves to a decode of its own.
func decode(data []byte, pool *modelPool) (*Entry, error) {
	if len(data) < headerBytes {
		return nil, fmt.Errorf("snapstore: file is %d bytes, shorter than the %d-byte header", len(data), headerBytes)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("snapstore: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, fmt.Errorf("snapstore: unsupported version %d, want %d", v, version)
	}
	var want [32]byte
	copy(want[:], data[12:44])
	plen := binary.LittleEndian.Uint64(data[44:52])
	if plen != uint64(len(data)-headerBytes) {
		return nil, fmt.Errorf("snapstore: payload length %d does not match %d file bytes after header", plen, len(data)-headerBytes)
	}
	payload := data[headerBytes:]
	if sum := sha256.Sum256(payload); sum != want {
		return nil, fmt.Errorf("snapstore: digest mismatch: file says %s, payload hashes to %s",
			hex.EncodeToString(want[:]), hex.EncodeToString(sum[:]))
	}
	e, err := decodePayload(payload, pool)
	if err != nil {
		return nil, err
	}
	e.Digest = hex.EncodeToString(want[:])
	return e, nil
}

// reader is a bounds-checked cursor over the payload.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.off {
		return nil, fmt.Errorf("snapstore: truncated payload at offset %d (need %d of %d remaining bytes)", r.off, n, len(r.data)-r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("snapstore: string length %d exceeds %d", n, maxStringLen)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) blob() ([]byte, error) {
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > maxBlobLen {
		return nil, fmt.Errorf("snapstore: blob length %d exceeds %d", n, maxBlobLen)
	}
	return r.take(int(n))
}

func decodePayload(payload []byte, pool *modelPool) (*Entry, error) {
	r := &reader{data: payload}
	key, err := r.str()
	if err != nil {
		return nil, err
	}
	configName, err := r.str()
	if err != nil {
		return nil, err
	}
	method, err := r.str()
	if err != nil {
		return nil, err
	}
	bits, err := r.u32()
	if err != nil {
		return nil, err
	}
	regime, err := r.u32()
	if err != nil {
		return nil, err
	}
	cfg, ok := configByName(configName)
	if !ok {
		return nil, fmt.Errorf("snapstore: unknown model config %q", configName)
	}
	modelBlob, err := r.blob()
	if err != nil {
		return nil, err
	}
	model, err := pool.model(familyKey{configName, method, bits}, cfg, modelBlob)
	if err != nil {
		return nil, fmt.Errorf("snapstore: loading model weights: %w", err)
	}
	nActs, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nActs > maxEntries {
		return nil, fmt.Errorf("snapstore: %d activation records exceed %d", nActs, maxEntries)
	}
	acts := make(map[string]ptq.TensorQuantizer, nActs)
	for i := uint32(0); i < nActs; i++ {
		site, err := r.str()
		if err != nil {
			return nil, err
		}
		tag, err := r.str()
		if err != nil {
			return nil, err
		}
		data, err := r.blob()
		if err != nil {
			return nil, err
		}
		q, err := unmarshalQuantizer(tag, data)
		if err != nil {
			return nil, fmt.Errorf("snapstore: site %s: %w", site, err)
		}
		if _, dup := acts[site]; dup {
			return nil, fmt.Errorf("snapstore: duplicate activation site %s", site)
		}
		acts[site] = q
	}
	qm := &ptq.QuantizedModel{
		Model:  model,
		Bits:   int(bits),
		Regime: ptq.Regime(regime),
		Method: method,
		Acts:   acts,
	}
	hasWP, err := r.take(1)
	if err != nil {
		return nil, err
	}
	switch hasWP[0] {
	case 0:
	case 1:
		nWP, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nWP > maxEntries {
			return nil, fmt.Errorf("snapstore: %d weight-param records exceed %d", nWP, maxEntries)
		}
		qm.WeightParams = make(map[string]*quant.Params, nWP)
		for i := uint32(0); i < nWP; i++ {
			site, err := r.str()
			if err != nil {
				return nil, err
			}
			data, err := r.blob()
			if err != nil {
				return nil, err
			}
			p, err := quant.UnmarshalParams(data)
			if err != nil {
				return nil, fmt.Errorf("snapstore: weight site %s: %w", site, err)
			}
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("snapstore: weight site %s: %w", site, err)
			}
			if _, dup := qm.WeightParams[site]; dup {
				return nil, fmt.Errorf("snapstore: duplicate weight site %s", site)
			}
			qm.WeightParams[site] = p
		}
	default:
		return nil, fmt.Errorf("snapstore: weight-params flag is %d, want 0 or 1", hasWP[0])
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("snapstore: %d trailing payload bytes", len(r.data)-r.off)
	}
	return &Entry{Key: key, Config: configName, Model: qm}, nil
}

// unmarshalQuantizer dispatches a tagged quantizer record to the package
// that owns the tag.
func unmarshalQuantizer(tag string, data []byte) (ptq.TensorQuantizer, error) {
	if q, ok, err := ptq.UnmarshalQuantizer(tag, data); ok {
		return q, err
	}
	if q, ok, err := baselines.UnmarshalQuantizer(tag, data); ok {
		return q, err
	}
	return nil, fmt.Errorf("snapstore: unknown quantizer tag %q", tag)
}

// configByName resolves a zoo configuration (the six paper models plus
// ViT-Nano) by exact name.
func configByName(name string) (vit.Config, bool) {
	for _, cfg := range vit.ZooConfigs {
		if cfg.Name == name {
			return cfg, true
		}
	}
	if vit.ViTNano.Name == name {
		return vit.ViTNano, true
	}
	return vit.Config{}, false
}
