package main

import "testing"

// TestCollab runs the example end to end. Every failure inside it
// is a log.Fatal, which fails the test binary.
func TestCollab(t *testing.T) { main() }
