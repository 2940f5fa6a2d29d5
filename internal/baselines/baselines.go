// Package baselines reimplements, on the same simulator substrate, the
// four covert channels the paper compares against (§6.2, Fig. 12,
// Table 2):
//
//   - NetSpectre [Schwarz+ ESORICS'19]: single-level AVX2 throttle
//     side-effect on the same hardware thread — 1 bit per transaction.
//   - TurboCC [Kalmbach+ '20]: cross-core Turbo-frequency modulation via
//     PHI licenses — bits take tens of milliseconds because frequency
//     restoration is on the PMU's slow hysteresis.
//   - DFScovert [Alagappan+ VLSI-SoC'17]: software DVFS governor
//     modulation — slower still (tens of ms per governor actuation).
//   - PowerT [Khatamifard+ HPCA'19]: thermal-state modulation — bits ride
//     the millisecond-scale die thermal time constant.
//
// Each baseline actually transmits bits through the simulated mechanism;
// throughput differences against IChannels emerge from mechanism latency,
// exactly as the paper argues. Every baseline implements the one channel
// contract (mitigate.Channel) through channels.SlotDecoder, the
// one-bit-per-slot rule: Calibrate returns the mean one/zero measurement
// gap and Transmit returns a core.TransmitResult.
//
// All four run on core's slot clock (core.RunSlots). The sender is a
// core.SlotSender that, at each window boundary, runs a burst (TurboCC,
// PowerT) or queues a governor write (DFScovert); the receiver is
// a core.SlotReceiver timing one loop per window. NetSpectre runs both
// sides on one thread, with the trigger as the receiver's same-thread
// action. PowerT keeps its own receiver agent, because it polls the
// thermal sensor through the window instead of timing a loop.
package baselines

import "ichannels/internal/units"

// time500us is the run-out after the last window of a millisecond-scale
// baseline.
const time500us = 500 * units.Microsecond
