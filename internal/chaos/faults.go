package chaos

import (
	"fmt"
	"os"

	"quq/internal/rng"
)

// CorruptFile flips nFlips deterministically-chosen bits in the file at
// path — the snapshot-corruption fault. Positions and bit indexes are
// drawn from seed through internal/rng, so a replayed script damages
// exactly the same bytes and the downstream quarantine/repair counts
// stay byte-identical across runs. The file is rewritten in place (no
// atomic dance: simulating torn on-disk state is the point).
func CorruptFile(path string, seed uint64, nFlips int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: corrupting %s: %w", path, err)
	}
	if len(data) == 0 {
		return fmt.Errorf("chaos: corrupting %s: file is empty", path)
	}
	src := rng.New(seed)
	for i := 0; i < nFlips; i++ {
		pos := src.Intn(len(data))
		bit := src.Intn(8)
		data[pos] ^= 1 << bit
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chaos: corrupting %s: %w", path, err)
	}
	return nil
}
