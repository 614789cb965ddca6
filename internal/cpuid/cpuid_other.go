//go:build !amd64

package cpuid

func hasAVX() bool { return false }

func hasAVX2() bool { return false }
