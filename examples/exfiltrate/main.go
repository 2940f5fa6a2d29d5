// Exfiltrate: the paper's full attacker model (§4) under realistic system
// noise. A sender process with access to a secret but no overt channel
// moves it to a receiver process over each of the three IChannels
// variants, wrapping the payload in Hamming(7,4)+CRC framing (§6.3) so
// interrupt- and context-switch-induced bit errors are corrected.
package main

import (
	"fmt"
	"log"

	"ichannels"
)

// maxAttempts caps the transmissions of one frame (the first send plus
// its retransmissions).
const maxAttempts = 5

func main() {
	secret := []byte("k=0xDEADBEEF")
	proc := ichannels.CannonLake8121U()

	kinds := []ichannels.ChannelKind{ichannels.SameThread, ichannels.SMT, ichannels.CrossCore}
	for _, kind := range kinds {
		m, err := ichannels.NewMachine(ichannels.MachineOptions{
			Processor: proc,
			// A "noisy" client system: 1000 interrupts/s, 200 context
			// switches/s, imperfect rdtsc.
			Noise:           ichannels.NoiseWithRates(1000, 200),
			TSCJitterCycles: 250,
			Seed:            7,
		})
		if err != nil {
			log.Fatal(err)
		}
		ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(kind, proc))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := ch.Calibrate(8); err != nil {
			log.Fatalf("%v: calibration failed: %v", kind, err)
		}

		frame, err := ichannels.EncodeFrame(secret, 7)
		if err != nil {
			log.Fatal(err)
		}
		// The paper's §6.3 noise recovery: the sender retransmits the
		// frame until the receiver's CRC validates it.
		var (
			payload   []byte
			corrected int
			res       *ichannels.TransmitResult
			attempts  int
		)
		for attempts < maxAttempts {
			attempts++
			res, err = ch.Transmit(frame)
			if err != nil {
				log.Fatal(err)
			}
			payload, corrected, err = ichannels.DecodeFrame(res.DecodedBits, 7)
			if err == nil {
				break
			}
		}
		status := "RECOVERED"
		if err != nil {
			status = "LOST (" + err.Error() + ")"
			payload = nil
		}
		fmt.Printf("%-16s %4d bits  raw %.0f b/s  BER %.4f  ECC fixed %d  attempts %d  → %s %q\n",
			kind, len(frame), res.ThroughputBPS, res.BER, corrected, attempts, status, string(payload))
	}
}
