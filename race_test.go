//go:build race

package repro

// raceBuild reports a -race build. Its instrumentation allocates where
// the optimized build does not — an append of a make, as in
// slices.Grow, gets a temporary — so allocation budgets do not hold.
const raceBuild = true
