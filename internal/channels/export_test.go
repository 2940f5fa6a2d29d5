package channels

var validBits = ValidBits
