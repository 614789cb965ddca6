package ptq

import (
	"sync"
	"testing"

	"quq/internal/tensor"
)

// quantizedNanoCache shares one fully-quantized QUQ model across the
// concurrency tests: calibration dominates their runtime and the tests
// only read the model, which is exactly the contract under test.
var quantizedNanoCache struct {
	once sync.Once
	qm   *QuantizedModel
	imgs []*tensor.Tensor
	err  error
}

// quantizedNano returns a small fully-quantized QUQ model plus an image
// workload for the concurrency tests.
func quantizedNano(t *testing.T, nImages int) (*QuantizedModel, []*tensor.Tensor) {
	t.Helper()
	c := &quantizedNanoCache
	c.once.Do(func() {
		m, calib, _ := nano(t)
		c.imgs = calib
		c.qm, c.err = Quantize(m, NewQUQ(), CalibOptions{Bits: 6, Regime: Full, Images: calib})
	})
	if c.err != nil {
		t.Fatal(c.err)
	}
	imgs := make([]*tensor.Tensor, nImages)
	for i := range imgs {
		imgs[i] = c.imgs[i%len(c.imgs)]
	}
	return c.qm, imgs
}

// TestQuantizedForwardConcurrent hammers one QuantizedModel from 8
// goroutines and asserts every output is bit-identical to serial
// execution — the concurrency contract quq-serve's worker pool relies
// on. Run under -race (check.sh always does), this also proves the
// forward path shares no mutable state between calls.
func TestQuantizedForwardConcurrent(t *testing.T) {
	const goroutines = 8
	const rounds = 2
	qm, imgs := quantizedNano(t, 6)

	serial := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		serial[i] = qm.Forward(img)
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(imgs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the images at a different offset so
				// the same image is in flight on several goroutines at once.
				for k := range imgs {
					i := (k + g) % len(imgs)
					got := qm.Forward(imgs[i])
					want := serial[i]
					if got.Len() != want.Len() {
						errs <- "logit length mismatch"
						continue
					}
					for j, v := range got.Data() {
						if v != want.Data()[j] {
							errs <- "concurrent logits differ from serial"
							break
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestForwardBatchMatchesSerial checks the exported batch helper:
// index-aligned, bit-identical outputs at several worker counts,
// including the degenerate empty batch.
func TestForwardBatchMatchesSerial(t *testing.T) {
	qm, imgs := quantizedNano(t, 6)
	serial := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		serial[i] = qm.Forward(img)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		got := qm.ForwardBatch(imgs, workers)
		if len(got) != len(imgs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(imgs))
		}
		for i := range got {
			for j, v := range got[i].Data() {
				if v != serial[i].Data()[j] {
					t.Fatalf("workers=%d image %d: batch output differs from serial", workers, i)
				}
			}
		}
	}
	if out := qm.ForwardBatch(nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestAgreementAccuracyEmpty is the regression test for the NaN guards:
// empty (or mismatched) evaluation slices must read as 0, not 0/0.
func TestAgreementAccuracyEmpty(t *testing.T) {
	qm, imgs := quantizedNano(t, 2)
	ref := qm // any Classifier works; the guards fire before Forward
	if got := agreement(ref, qm, nil); got != 0 {
		t.Fatalf("Agreement on empty slice = %v, want 0", got)
	}
	if got := Accuracy(qm, nil, nil); got != 0 {
		t.Fatalf("Accuracy on empty slice = %v, want 0", got)
	}
	if got := Accuracy(qm, imgs, []int{0}); got != 0 {
		t.Fatalf("Accuracy on mismatched labels = %v, want 0", got)
	}
	// Non-empty sanity: the same classifier always agrees with itself.
	if got := agreement(qm, qm, imgs); got != 1 {
		t.Fatalf("self-agreement = %v, want 1", got)
	}
}
