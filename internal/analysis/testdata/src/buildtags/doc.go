// Package buildtags is a fixture: kernel_amd64.go and kernel_other.go
// declare the same function, so a loader that type-checks both together
// reports it redeclared.
package buildtags

// Twice calls the one body this target builds.
func Twice() int { return 2 * body() }
