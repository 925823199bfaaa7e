// Package snapshot holds one inert type kept for the bench module's
// sake. Every sweep cell runs from scratch as one core.Run; no cell
// starts from another cell's state.
package snapshot

// Stats has no effect and is always left zero. It survives only because
// the bench module compiles against it; delete it with the next change
// to bench/.
type Stats struct {
	TotalKernels  int
	SharedKernels int
	Forked        int
}
