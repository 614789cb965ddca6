//go:build race

package ptq

// raceEnabled reports that this binary was built with -race; see
// norace_enabled_test.go for the default.
const raceEnabled = true
