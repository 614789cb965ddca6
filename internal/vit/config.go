// Package vit implements the vision-transformer inference stack the QUQ
// paper evaluates on: ViT (Dosovitskiy et al.), DeiT (ViT plus a
// distillation token) and Swin (windowed attention with shifted windows
// and patch merging), together with the seams the PTQ pipeline uses at
// every quantization point of the paper's Figure 1 data flow.
//
// The forward is batch-major — Model.ForwardBatch stacks the tokens of
// its images into one [B·T, dim] pass, and Forward is its one-image case —
// and has two seams per site (ForwardOpts): Quantize rewrites the
// site's tensor in place — quantized inference — and Tap observes it
// afterwards and may keep or replace it — calibration, instrumentation.
// The forward hands them only tensors it allocated itself; with no Tap
// and no AttnSink every such tensor comes from, and goes back to, one
// tensor.Arena checked out for the pass, and with either present they
// are ordinary allocations a caller may keep (ARCHITECTURE.md, "Forward
// lifecycle").
//
// The models here are *proxy-scale*: same architectures, reduced widths
// and depths (see DESIGN.md). Weights are either synthetic — Gaussian
// fan-in initialization plus the outlier-channel injection that gives
// trained ViTs their characteristic long-tailed activations — or loaded
// from a checkpoint trained by the nn package.
package vit

import "fmt"

// Variant selects the architecture family.
type Variant int

const (
	// VariantViT is the plain vision transformer with a class token.
	VariantViT Variant = iota
	// VariantDeiT adds DeiT's distillation token; at inference the class
	// and distillation head outputs are averaged.
	VariantDeiT
	// VariantSwin uses windowed attention with shifted windows and
	// patch-merging stages; classification uses global average pooling.
	VariantSwin
)

func (v Variant) String() string {
	switch v {
	case VariantViT:
		return "ViT"
	case VariantDeiT:
		return "DeiT"
	case VariantSwin:
		return "Swin"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config describes a model. For ViT/DeiT variants the single-stage fields
// (Dim, Depth, Heads) apply; Swin uses the Stage* slices with Dim taken
// from StageDims[0].
type Config struct {
	Name      string
	Variant   Variant
	ImageSize int // square input, pixels per side
	PatchSize int // square patch side
	Channels  int // input channels
	Classes   int

	// ViT/DeiT geometry.
	Dim   int
	Depth int
	Heads int

	// MLPRatio is the hidden/dim ratio of the MLP blocks (4 in all the
	// paper's models).
	MLPRatio int

	// Registers is the number of high-norm register tokens (ViT/DeiT
	// variants only). Trained ViTs develop such attention-sink tokens
	// with large, input-independent activations concentrated in a subset
	// of channels; they set the outlier range of every residual-stream
	// tensor while carrying no classification content. RegisterScale is
	// their magnitude relative to the patch-embedding scale. Swin, which
	// has no global tokens, uses zero — matching its milder full-
	// quantization degradation in the paper's Table 3.
	Registers     int
	RegisterScale float64

	// Swin geometry: per-stage depths, dims and head counts, plus the
	// window side in tokens. Stages are separated by 2×2 patch merging.
	StageDepths []int
	StageDims   []int
	StageHeads  []int
	Window      int
}

// Tokens returns the sequence length seen by the transformer blocks
// (ViT/DeiT variants only; Swin's token count changes per stage).
func (c Config) Tokens() int {
	n := c.gridSide() * c.gridSide()
	switch c.Variant {
	case VariantViT:
		return n + 1 + c.Registers
	case VariantDeiT:
		return n + 2 + c.Registers
	}
	return n
}

func (c Config) gridSide() int { return c.ImageSize / c.PatchSize }

// PatchDim returns the flattened patch vector length.
func (c Config) PatchDim() int { return c.Channels * c.PatchSize * c.PatchSize }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ImageSize <= 0 || c.PatchSize <= 0 || c.ImageSize%c.PatchSize != 0 {
		return fmt.Errorf("vit: image %d not divisible into %d-pixel patches", c.ImageSize, c.PatchSize)
	}
	if c.Channels <= 0 || c.Classes <= 0 {
		return fmt.Errorf("vit: channels/classes must be positive")
	}
	if c.MLPRatio <= 0 {
		return fmt.Errorf("vit: MLPRatio must be positive")
	}
	switch c.Variant {
	case VariantViT, VariantDeiT:
		if c.Dim <= 0 || c.Depth <= 0 || c.Heads <= 0 || c.Dim%c.Heads != 0 {
			return fmt.Errorf("vit: bad geometry dim=%d depth=%d heads=%d", c.Dim, c.Depth, c.Heads)
		}
	case VariantSwin:
		if len(c.StageDepths) == 0 || len(c.StageDepths) != len(c.StageDims) || len(c.StageDims) != len(c.StageHeads) {
			return fmt.Errorf("vit: inconsistent Swin stage config")
		}
		side := c.gridSide()
		for i := range c.StageDepths {
			if c.StageDims[i]%c.StageHeads[i] != 0 {
				return fmt.Errorf("vit: stage %d dim %d not divisible by %d heads", i, c.StageDims[i], c.StageHeads[i])
			}
			if c.Window <= 0 || side%c.Window != 0 {
				return fmt.Errorf("vit: stage %d grid %d not divisible into %d-token windows", i, side, c.Window)
			}
			side /= 2
		}
	default:
		return fmt.Errorf("vit: unknown variant %v", c.Variant)
	}
	return nil
}

// The proxy model zoo: the six configurations of the paper's Tables 2–3
// scaled to single-machine size (DESIGN.md documents the scaling), plus
// the trainable ViT-Nano.
var (
	ViTSmall = Config{
		Name: "ViT-S", Variant: VariantViT,
		ImageSize: 32, PatchSize: 4, Channels: 3, Classes: 100,
		Dim: 96, Depth: 6, Heads: 3, MLPRatio: 4,
		Registers: 1, RegisterScale: 60,
	}
	ViTLarge = Config{
		Name: "ViT-L", Variant: VariantViT,
		ImageSize: 32, PatchSize: 4, Channels: 3, Classes: 100,
		Dim: 192, Depth: 12, Heads: 6, MLPRatio: 4,
		Registers: 1, RegisterScale: 60,
	}
	DeiTSmall = Config{
		Name: "DeiT-S", Variant: VariantDeiT,
		ImageSize: 32, PatchSize: 4, Channels: 3, Classes: 100,
		Dim: 96, Depth: 6, Heads: 3, MLPRatio: 4,
		Registers: 1, RegisterScale: 25,
	}
	DeiTBase = Config{
		Name: "DeiT-B", Variant: VariantDeiT,
		ImageSize: 32, PatchSize: 4, Channels: 3, Classes: 100,
		Dim: 144, Depth: 9, Heads: 6, MLPRatio: 4,
		Registers: 1, RegisterScale: 25,
	}
	SwinTiny = Config{
		Name: "Swin-T", Variant: VariantSwin,
		ImageSize: 32, PatchSize: 2, Channels: 3, Classes: 100,
		MLPRatio: 4, Window: 4,
		StageDepths: []int{2, 2, 2},
		StageDims:   []int{48, 96, 192},
		StageHeads:  []int{2, 4, 8},
	}
	SwinSmall = Config{
		Name: "Swin-S", Variant: VariantSwin,
		ImageSize: 32, PatchSize: 2, Channels: 3, Classes: 100,
		MLPRatio: 4, Window: 4,
		StageDepths: []int{2, 4, 2},
		StageDims:   []int{48, 96, 192},
		StageHeads:  []int{2, 4, 8},
	}
	ViTNano = Config{
		Name: "ViT-Nano", Variant: VariantViT,
		ImageSize: 16, PatchSize: 4, Channels: 1, Classes: 10,
		Dim: 48, Depth: 4, Heads: 3, MLPRatio: 4,
	}
)

// ZooConfigs lists the six paper-table configurations in table order.
var ZooConfigs = []Config{ViTSmall, ViTLarge, DeiTSmall, DeiTBase, SwinTiny, SwinSmall}
