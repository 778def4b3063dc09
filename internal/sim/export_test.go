package sim

// SetElision turns idle-step elision (see Kernel.wake) on or off for the
// kernels built after it and returns a func that restores the previous
// setting. The exactness tests run one program both ways with it; a test
// that calls it must not run in parallel with one that builds kernels.
func SetElision(on bool) (restore func()) {
	was := elideIdleSteps
	elideIdleSteps = on
	return func() { elideIdleSteps = was }
}
