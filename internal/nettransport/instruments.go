package nettransport

import (
	"sync/atomic"

	"sr3/internal/metrics"
)

// netInstruments are the transport's steady-state counters, resolved once
// at SetMetrics. The handle is published through an atomic pointer so
// Exchange (which runs without the Network mutex held across I/O) reads it
// with one load; nil means un-instrumented and costs only that load.
type netInstruments struct {
	calls        *metrics.Counter
	dials        *metrics.Counter
	dialFailures *metrics.Counter
	timeouts     *metrics.Counter
}

// SetMetrics enables transport counters (calls, dials, dial failures, I/O
// timeouts) in reg; nil disables them again.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		n.instr.Store((*netInstruments)(nil))
		return
	}
	n.instr.Store(&netInstruments{
		calls:        reg.Counter("sr3_net_calls_total"),
		dials:        reg.Counter("sr3_net_dials_total"),
		dialFailures: reg.Counter("sr3_net_dial_failures_total"),
		timeouts:     reg.Counter("sr3_net_io_timeouts_total"),
	})
}

// noteDial counts one exchange and its one dial.
func (ni *netInstruments) noteDial(err error) {
	if ni == nil {
		return
	}
	ni.calls.Inc()
	ni.dials.Inc()
	if err != nil {
		ni.dialFailures.Inc()
	}
}

// noteTimeout counts one exchange aborted by the I/O deadline.
func (ni *netInstruments) noteTimeout() {
	if ni != nil {
		ni.timeouts.Inc()
	}
}

// instrPtr aliases the atomic holder so the Network struct declaration
// stays readable.
type instrPtr = atomic.Pointer[netInstruments]
