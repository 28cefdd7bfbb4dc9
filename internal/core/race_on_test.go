//go:build race

package core_test

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a share of what is put back, so pooled encoders
// allocate more and whole-stack allocation budgets do not apply.
const raceEnabled = true
