package mathx

// Internals the external test package needs: it imports ptq and vit for
// real tensors, which an in-package test could not (they import mathx).
const (
	MemoWindow = memoWindow
	MemoBits   = memoBits
	MemoMul    = memoMul
	MemoVacant = memoVacant
)

var (
	MemoIndex     = memoIndex
	GeluSliceWith = geluSlice
)
