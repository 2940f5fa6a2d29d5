// Quickstart: build a simulated Cannon Lake machine, establish the
// cross-core IChannels covert channel, and move one byte between two
// processes that share nothing but the voltage regulator.
package main

import (
	"fmt"
	"log"

	"ichannels"
)

func main() {
	proc := ichannels.CannonLake8121U()
	m, err := ichannels.NewMachine(ichannels.MachineOptions{
		Processor: proc,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// IccCoresCovert: sender on core 0, receiver on core 1, communicating
	// through the serialized voltage transitions of the shared VR.
	ch, err := ichannels.NewChannel(m, ichannels.DefaultChannelParams(ichannels.CrossCore, proc))
	if err != nil {
		log.Fatal(err)
	}

	// The receiver first learns the four throttling-period ranges.
	if _, err := ch.Calibrate(8); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %s: per-level receiver readings %v cycles\n",
		"IccCoresCovert", ch.Calibration().MeanCycles)

	// Send the secret byte 0xA5, two bits per transaction.
	secret := byte(0xA5)
	bits := make([]int, 8)
	for i := 0; i < 8; i++ {
		bits[i] = int(secret>>(7-i)) & 1
	}
	res, err := ch.Transmit(bits)
	if err != nil {
		log.Fatal(err)
	}

	var got byte
	for i, b := range res.DecodedBits {
		got |= byte(b) << (7 - i)
	}
	fmt.Printf("sent 0x%02X → received 0x%02X in %v (%.0f b/s, BER %.3f)\n",
		secret, got, res.Elapsed, res.ThroughputBPS, res.BER)
	if got != secret {
		log.Fatal("covert transfer corrupted")
	}
	fmt.Println("covert transfer OK")
}
