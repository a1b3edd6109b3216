// Package testonly stands for a harness only tests may import.
package testonly

func Helper() int { return 1 }
