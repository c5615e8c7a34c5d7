//go:build race

package ipc

// raceEnabled reports whether this binary was built with the race
// detector. Allocation-counting tests that go through a sync.Pool skip
// under it: the detector makes the pool drop items at random.
const raceEnabled = true
