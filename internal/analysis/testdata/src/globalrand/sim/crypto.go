package sim

import (
	crand "crypto/rand"
)

func entropy(buf []byte) {
	crand.Read(buf) // want `crypto/rand is nondeterministic by design`
}
