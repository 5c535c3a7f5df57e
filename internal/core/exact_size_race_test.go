//go:build race

package core

// exactRandomInputs is the random-input count of
// TestExactInferenceBitIdentical, cut under the race detector: the test is
// single-threaded per engine and the reference defuzzifier is slow under
// instrumentation. CI's non-race step runs the full count.
const exactRandomInputs = 10000
