package main

// A non-test file importing a test-only package: the census reports it.
import "fixture/internal/testonly"

var _ = testonly.Helper
