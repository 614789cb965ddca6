package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"

	"quq/internal/data"
	"quq/internal/rng"
	"quq/internal/vit"
)

// wireBody builds a classify body the way clients (and bench/) encode
// one: json.Marshal of the five fields over n synthetic images of cfg.
func wireBody(tb testing.TB, cfg vit.Config, n int) []byte {
	tb.Helper()
	var req classifyRequest
	req.modelRequest = modelRequest{Model: cfg.Name, Method: "QUQ", Bits: 6, Regime: "full"}
	for _, img := range data.Images(cfg, n, 2025) {
		req.Images = append(req.Images, img.Data())
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// wireEdgeBodies are the bodies at the edges of the scanner's subset:
// numbers the JSON grammar or ParseFloat rejects, escapes, key spelling,
// duplicates, null, nested unknown fields and bytes after the object.
var wireEdgeBodies = []string{
	`{"model":"ViT-Nano","images":[[-0,0,-0.0,0e0]]}`,
	`{"images":[[1e400]]}`, `{"images":[[-1e400]]}`, `{"images":[[1e-400,5e-324,1.7976931348623157e308]]}`,
	`{"images":[[01]]}`, `{"images":[[+1]]}`, `{"images":[[.5]]}`, `{"images":[[1.]]}`, `{"images":[[1e]]}`,
	`{"images":[[1E+2,1e-2,-1.5e3]]}`, `{"images":[[1,]]}`, `{"images":[[1],]}`, `{"images":[[1] [2]]}`,
	`{"model":"ViT-Nano","images":[[1]]}`, `{"model":"ViT-Nan\o"}`, "{\"model\":\"\xc3\xa9\"}", "{\"model\":\"a\x01\"}",
	`{"Model":"ViT-Nano","images":[[1]]}`, `{"MODEL":"x","model":"ViT-Nano"}`,
	`{"model":"a","model":"ViT-Nano","bits":4,"bits":6,"images":[[1,2]],"images":[[3]]}`,
	`{"images":[[1,2],[3]],"images":[]}`, `{"images":[[1]],"images":[[]]}`,
	`{"model":null,"images":null}`, `{"images":[null]}`, `{"images":[[null]]}`,
	`{"extra":{"a":[1,{"b":2}]},"images":[[1]]}`, `{"images":[[[1]]]}`, `{"images":[["1"]]}`,
	`{"images":[[1]]} trailing`, `{"images":[[1]]}  `, `{"images":[[1]]}{}`, ` {"bits":6} `,
	`{"bits":6.0}`, `{"bits":"6"}`, `{"bits":-0}`, `{"bits":1e1}`, `{"bits":99999999999999999999}`,
	`{"model":"ViT-Nano","method":"quq","regime":"FULL","bits":8}`,
	`{}`, ``, `[`, `{`, `{"images":[]}`, `{"images":[[]]}`, `{"images":`, `{"bits":6,}`, `{,}`, "\t{\r\n}",
}

// sameClassifyRequest reports whether two decodes agree on the key
// fields and, bit for bit, on every image.
func sameClassifyRequest(a, b classifyRequest) error {
	if a.modelRequest != b.modelRequest {
		return fmt.Errorf("key fields %+v, want %+v", a.modelRequest, b.modelRequest)
	}
	if (a.Images == nil) != (b.Images == nil) || len(a.Images) != len(b.Images) {
		return fmt.Errorf("%d images (nil %v), want %d (nil %v)", len(a.Images), a.Images == nil, len(b.Images), b.Images == nil)
	}
	for i := range a.Images {
		if len(a.Images[i]) != len(b.Images[i]) {
			return fmt.Errorf("image %d: %d values, want %d", i, len(a.Images[i]), len(b.Images[i]))
		}
		for j, v := range a.Images[i] {
			if math.Float64bits(v) != math.Float64bits(b.Images[i][j]) {
				return fmt.Errorf("image %d value %d: %v, want %v", i, j, v, b.Images[i][j])
			}
		}
	}
	return nil
}

// FuzzClassifyRequest holds the classify decode to encoding/json, the
// decoder it replaces: on any body both reject with the same text, or
// both accept with the same key fields and bit-identical images.
func FuzzClassifyRequest(f *testing.F) {
	f.Add(wireBody(f, vit.ViTSmall, 4))
	f.Add(wireBody(f, vit.ViTNano, 1))
	for _, b := range wireEdgeBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := decodeClassify(body)
		var want classifyRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q: error %v, encoding/json says %v", body, gerr, werr)
		}
		if werr == nil {
			if err := sameClassifyRequest(got, want); err != nil {
				t.Fatalf("%.200q: %v", body, err)
			}
		}
	})
}

// TestNumberMatchesParseFloat holds decimal.float, where it decides,
// to strconv.ParseFloat bit for bit: on halfway and boundary cases, on
// float64s of every magnitude in the forms strconv writes, and on
// random decimals of 1 to 19 digits.
func TestNumberMatchesParseFloat(t *testing.T) {
	toks := []string{
		"0", "-0", "-0.0", "0e0", "0.000", "0e-400", "1", "-1", "0.1", "0.3", "1e22", "1e23", "-1e-22",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740995", "4503599627370496.5",
		"4503599627370497.5", "0.9007199254740993", "1234567890123456e6", "18446744073709551615",
		"18446744073709551616", "1234567890123456789012345", "0.00000000000000000000000000001",
		"1E+2", "25e-1", "1e-48", "1e-49", "1e28", "1e29", "1.7976931348623157e308", "4.9e-324",
		"2.2250738585072014e-308", "1e100000", "-1e-100000",
		"1.00000000000000011102230246251565404236316680908203125",
	}
	src := rng.New(1)
	for i := 0; i < 100000; i++ {
		v := math.Float64frombits(src.Uint64())
		if i%2 == 0 {
			v = src.Gauss(0, 1) * math.Pow(10, float64(i%60-30))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		toks = append(toks,
			strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'e', -1, 64),
			strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(v, 'e', 16+i%3, 64),
			fmt.Sprintf("%de%d", src.Uint64()>>(src.Uint64()%64), int(src.Uint64()%80)-50))
	}
	decided := 0
	for _, tok := range toks {
		s := scanner{b: []byte(tok)}
		got, d, ok := s.number()
		if !ok || string(got) != tok {
			t.Fatalf("%s: scanned %q ok=%v", tok, got, ok)
		}
		v, ok := d.float()
		if !ok {
			continue
		}
		decided++
		want, err := strconv.ParseFloat(tok, 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%#x), ParseFloat %v (%#x, %v)", tok, v, math.Float64bits(v), want, math.Float64bits(want), err)
		}
	}
	if decided < len(toks)/2 {
		t.Fatalf("only %d of %d tokens decided without ParseFloat", decided, len(toks))
	}
	// Two entries of strconv's own table (eisel_lemire.go).
	if got := pow10Mant[-1-minPow10]; got != [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC} {
		t.Fatalf("1e-1: %#x", got)
	}
	if got := pow10Mant[-2-minPow10]; got != [2]uint64{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A} {
		t.Fatalf("1e-2: %#x", got)
	}
}

// TestScannerTakesClientBodies: the bodies clients send lie in the
// subset, so they take the scanner and not the fallback.
func TestScannerTakesClientBodies(t *testing.T) {
	for _, cfg := range []vit.Config{vit.ViTSmall, vit.ViTNano} {
		body := wireBody(t, cfg, 4)
		s := scanner{b: body, parse: true}
		if _, _, ok := s.object(); !ok {
			t.Fatalf("%s: a json.Marshal body fell back to encoding/json", cfg.Name)
		}
		if _, ok := ScanSelection(body); !ok {
			t.Fatalf("%s: the front's scan fell back to encoding/json", cfg.Name)
		}
	}
}

// TestDecodeClassifyAllocs is the guard against a return to reflection:
// the batch-float body (4 ViT-S images, 12,288 numbers) decodes in a
// fixed handful of allocations — the slab, the image list and the three
// key strings — not one or more per number.
func TestDecodeClassifyAllocs(t *testing.T) {
	body := wireBody(t, vit.ViTSmall, 4)
	allocs := testing.AllocsPerRun(20, func() {
		req, err := decodeClassify(body)
		if err != nil || len(req.Images) != 4 {
			t.Fatalf("decode: %d images, %v", len(req.Images), err)
		}
	})
	if allocs > 8 {
		t.Fatalf("%v allocations to decode a 4-image ViT-S body, want at most 8", allocs)
	}
}

// BenchmarkDecodeClassify times the batch-float body from bytes to
// image tensors: the worker's share of serve.wire_ms.
func BenchmarkDecodeClassify(b *testing.B) {
	body := wireBody(b, vit.ViTSmall, 4)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodeClassify(body)
		if err != nil {
			b.Fatal(err)
		}
		for _, flat := range req.Images {
			if _, err := data.ImageFromFlat(vit.ViTSmall, flat); err != nil {
				b.Fatal(err)
			}
		}
	}
}
