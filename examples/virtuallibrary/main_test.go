package main

import "testing"

// TestVirtualLibrary runs the example end to end. Every failure inside it
// is a log.Fatal, which fails the test binary.
func TestVirtualLibrary(t *testing.T) { main() }
