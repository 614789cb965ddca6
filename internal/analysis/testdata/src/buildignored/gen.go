//go:build ignore

// Command gen is a fixture: a directory whose only Go file is excluded
// from every build holds no package.
package main

func main() {}
