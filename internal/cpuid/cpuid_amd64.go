package cpuid

// hasAVX is HasAVX's probe. Implemented in cpuid_amd64.s.
func hasAVX() bool

// hasAVX2 is HasAVX2's probe. Implemented in cpuid_amd64.s.
func hasAVX2() bool
