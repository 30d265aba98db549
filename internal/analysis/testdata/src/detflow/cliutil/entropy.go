package cliutil

import (
	crand "crypto/rand"
	"io"
)

// Entropy reads crypto/rand through its Reader var rather than a
// function: a reference to any crypto/rand object is a globalrand source.
func Entropy(buf []byte) {
	io.ReadFull(crand.Reader, buf)
}
