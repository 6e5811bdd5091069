//go:build !race

package docdb

// raceBuild: see race_test.go.
const raceBuild = false
