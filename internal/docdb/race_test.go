//go:build race

package docdb

// raceBuild reports a -race build, whose instrumentation allocates
// where the optimized build does not, so byte budgets do not hold.
const raceBuild = true
