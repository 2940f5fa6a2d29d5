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
package baselines

import "ichannels/internal/units"

// time500us is the run-out after the last window of a millisecond-scale
// baseline.
const time500us = 500 * units.Microsecond
