package main

import "testing"

// TestLectureCast runs the example end to end. Every failure inside it
// is a log.Fatal, which fails the test binary.
func TestLectureCast(t *testing.T) { main() }
