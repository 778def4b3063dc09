package sim

import (
	"testing"

	"repro/internal/rt"
	"repro/internal/rt/rttest"
)

// kernelHost is the kernel as an rttest host. Crash, called from a step,
// crashes the process as soon as that step's event ends.
func kernelHost(t *testing.T, n int, tr rt.Tracer) *rttest.Host {
	k := NewKernel(n, WithTracer(tr))
	return &rttest.Host{
		Runtime: k,
		Start:   func() {},
		Advance: func(to Time) { k.Run(to) },
		Crash:   func(p ProcID) { k.CrashWhen(p, "", func() bool { return true }) },
		Stop:    k.Stop,
		Counter: k.Counter,
		Exact:   true,
	}
}

func TestKernelContract(t *testing.T)      { rttest.Run(t, kernelHost) }
func TestPacedKernelContract(t *testing.T) { rttest.Run(t, rttest.Paced(kernelHost)) }
