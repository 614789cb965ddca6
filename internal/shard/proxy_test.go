package shard

import (
	"encoding/json"
	"fmt"
	"testing"

	"quq/internal/data"
	"quq/internal/serve"
	"quq/internal/vit"
)

// FuzzProxySelection holds the front's key peek to json.Unmarshal into
// the selection struct, the decode it replaces: on any body both reject
// with the same text, or both accept with the same key fields.
func FuzzProxySelection(f *testing.F) {
	for _, cfg := range []vit.Config{vit.ViTSmall, vit.ViTNano} {
		body := map[string]any{"model": cfg.Name, "method": "QUQ", "bits": 6, "regime": "full"}
		var images [][]float64
		for _, img := range data.Images(cfg, 4, 2025) {
			images = append(images, img.Data())
		}
		body["images"] = images
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range []string{
		`{"model":"ViT-Nano","method":"QUQ","bits":6,"regime":"full"}`,
		`{"images":[[-0,1e400,-1e400]]}`, `{"images":[[01]]}`, `{"images":[[+1]]}`, `{"images":[[.5]]}`,
		`{"images":[[1.]]}`, `{"images":[[1e]]}`, `{"model":"ViT-Nan\o"}`, "{\"model\":\"\xc3\xa9\"}",
		`{"Model":"ViT-Nano"}`, `{"model":"a","model":"ViT-Nano","bits":4,"bits":6}`,
		`{"model":null,"images":null}`, `{"extra":{"a":[1,{"b":2}]},"bits":6}`, `{"images":[[[1]]]}`,
		`{"bits":6} trailing`, `{"bits":6}  `, `{"bits":6}{}`, `{"bits":6.0}`, `{"bits":"6"}`,
		`{"bits":99999999999999999999}`, `{}`, ``, `{`, `{"images":[]}`, `{"images":[[]]}`, `{,}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := selection(body)
		var want struct {
			Model  string `json:"model"`
			Method string `json:"method"`
			Bits   int    `json:"bits"`
			Regime string `json:"regime"`
		}
		werr := json.Unmarshal(body, &want)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q: error %v, json.Unmarshal says %v", body, gerr, werr)
		}
		if werr == nil && got != serve.Selection(want) {
			t.Fatalf("%.200q: %+v, json.Unmarshal says %+v", body, got, want)
		}
	})
}
