package main

import "testing"

// TestQuickstart runs the example end to end. Every failure inside it
// is a log.Fatal, which fails the test binary.
func TestQuickstart(t *testing.T) { main() }
