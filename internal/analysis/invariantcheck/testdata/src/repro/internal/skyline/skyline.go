// Package skyline stubs the skyline API surface: entry points that
// return (Skyline, error), the invariant checkers, and one error-free
// accessor, mirroring the real repro/internal/skyline signatures.
package skyline

import "errors"

type Skyline []int

func Compute(disks []float64) (Skyline, error) {
	if len(disks) == 0 {
		return nil, errors.New("empty")
	}
	return Skyline{0}, nil
}

func ComputeIncremental(disks []float64) (Skyline, error) {
	return Compute(disks)
}

func (s Skyline) CheckInvariants(n int) error { return nil }

func (s Skyline) Validate(n int) error { return nil }

func (s Skyline) ArcCount() int { return len(s) }
