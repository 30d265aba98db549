package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// sample is what one child cost.
type sample struct {
	WallS, CPUS, RSSMiB float64 // as the kernel reported them
	// Speed is the host-speed factor measured beside the child (see
	// env.beside); the end-to-end time metrics are WallS and CPUS times it.
	Speed float64
	// Floored marks an RSS reading that says more about the process that
	// started the child than about the child; the times stay valid.
	Floored bool
}

// floorMargin is how far above the starting process's own peak RSS a
// child's must sit before it is believed.
const floorMargin = 1.25

// spawn runs one child to completion, nothing else running beside it, and
// returns what it cost and what it printed. A non-zero exit is an error
// that carries the last line of the child's stderr.
//
// The child is started by bench/spawner, not by this process: a child's
// ru_maxrss can never read lower than the peak RSS of the process that
// exec'd it, this process holds the reference kernel's 112 MiB of buffers,
// and hdsim -replay peaks under six.
// The spawner reports its own peak (about 1.8 MiB) with every sample, and
// a reading within floorMargin of it is marked floored.
func (e *env) spawn(argv []string) (sample, string, error) {
	result := filepath.Join(e.tmp, "spawn.result")
	stdout := filepath.Join(e.tmp, "spawn.stdout")
	stderr := filepath.Join(e.tmp, "spawn.stderr")
	cmd := exec.Command(filepath.Join(e.bin, "spawner"), append([]string{result, stdout, stderr}, argv...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sample{}, "", fmt.Errorf("spawner: %w", err)
	}
	b, err := os.ReadFile(result)
	if err != nil {
		return sample{}, "", err
	}
	var wallNS, utimeUS, stimeUS, maxrssKiB, exit, floorKiB int64
	if _, err := fmt.Sscan(string(b), &wallNS, &utimeUS, &stimeUS, &maxrssKiB, &exit, &floorKiB); err != nil {
		return sample{}, "", fmt.Errorf("spawner result %q: %w", b, err)
	}
	s := sample{
		WallS:   float64(wallNS) / 1e9,
		CPUS:    float64(utimeUS+stimeUS) / 1e6,
		RSSMiB:  float64(maxrssKiB) / 1024,
		Floored: float64(maxrssKiB) <= floorMargin*float64(floorKiB),
	}
	out, err := os.ReadFile(stdout)
	if err != nil {
		return s, "", err
	}
	if exit != 0 {
		errOut, _ := os.ReadFile(stderr) // best effort: it only decorates the error
		return s, string(out), fmt.Errorf("%s: exit %d: %s", strings.Join(argv, " "), exit, lastLine(string(errOut)))
	}
	return s, string(out), nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fileSHA256 hashes a file through a small buffer: traces are tens of
// megabytes and this process must stay small.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
