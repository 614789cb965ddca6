//go:build !race

package ptq

// raceEnabled mirrors the runtime's race-detector flag, so a test can
// keep its large models out of the detector's ten-fold slowdown.
const raceEnabled = false
