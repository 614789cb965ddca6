//go:build !amd64

package buildtags

func body() int { return 1 }
