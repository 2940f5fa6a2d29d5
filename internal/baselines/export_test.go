package baselines

import "ichannels/internal/channels"

var validBits = channels.ValidBits
