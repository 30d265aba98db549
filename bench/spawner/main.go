// Command spawner runs one command and reports what it cost, from a
// process small enough not to distort the answer.
//
// Linux folds the address space a process leaves at exec into its
// ru_maxrss, and Go starts children with CLONE_VFORK|CLONE_VM, so a child
// never reports a peak RSS below its parent's. The orchestrator holds
// over a hundred MiB; hdsim -replay peaks under six. This program imports
// almost nothing, stays under 2 MiB, and sits between the two.
//
//	spawner RESULT STDOUT STDERR argv0 [arg...]
//
// The child's stdout and stderr go to the named files. RESULT receives
// one line: wall_ns utime_us stime_us maxrss_kib exit_code floor_kib,
// where floor_kib is this process's own peak RSS when the child started.
package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 5 {
		die("usage: spawner RESULT STDOUT STDERR argv0 [arg...]")
	}
	stdout := create(os.Args[2])
	stderr := create(os.Args[3])
	argv := os.Args[4:]

	floor := ownPeakKiB()
	start := time.Now()
	pid, err := syscall.ForkExec(argv[0], argv, &syscall.ProcAttr{
		Env:   os.Environ(),
		Files: []uintptr{0, stdout.Fd(), stderr.Fd()},
	})
	if err != nil {
		die("spawner: " + argv[0] + ": " + err.Error())
	}
	var status syscall.WaitStatus
	var ru syscall.Rusage
	for {
		_, err = syscall.Wait4(pid, &status, 0, &ru)
		if err != syscall.EINTR {
			break
		}
	}
	wall := time.Since(start)
	if err != nil {
		die("spawner: wait: " + err.Error())
	}
	code := status.ExitStatus()
	if !status.Exited() {
		code = 128 + int(status.Signal())
	}

	line := strconv.AppendInt(nil, int64(wall), 10)
	for _, v := range []int64{micros(ru.Utime), micros(ru.Stime), ru.Maxrss, int64(code), floor} {
		line = strconv.AppendInt(append(line, ' '), v, 10)
	}
	if err := os.WriteFile(os.Args[1], append(line, '\n'), 0o644); err != nil {
		die("spawner: " + err.Error())
	}
}

func micros(t syscall.Timeval) int64 { return int64(t.Sec)*1_000_000 + int64(t.Usec) }

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		die("spawner: " + err.Error())
	}
	return f
}

func die(msg string) {
	os.Stderr.WriteString(msg + "\n")
	os.Exit(2)
}

// ownPeakKiB reads VmHWM from /proc/self/status without pulling in a
// parser: the line reads "VmHWM:\t    1234 kB".
func ownPeakKiB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	const key = "VmHWM:"
	for i := 0; i+len(key) <= len(b); i++ {
		if string(b[i:i+len(key)]) != key {
			continue
		}
		var v int64
		for _, c := range b[i+len(key):] {
			switch {
			case c >= '0' && c <= '9':
				v = v*10 + int64(c-'0')
			case c == '\n' || c == 'k':
				return v
			}
		}
	}
	return 0
}
