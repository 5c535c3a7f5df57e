//go:build !race

package core

// exactRandomInputs is the random-input count of
// TestExactInferenceBitIdentical.
const exactRandomInputs = 100000
