package main

import "testing"

// TestFaultTolerance runs the example end to end. Every failure inside it
// is a log.Fatal, which fails the test binary.
func TestFaultTolerance(t *testing.T) { main() }
