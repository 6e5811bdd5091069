//go:build !race

package repro

// raceBuild: see race_test.go.
const raceBuild = false
