package cliutil

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// CampaignFlags registers the campaign sharding flags (-shards, -shard,
// -checkpoint-dir, -resume) on fs and returns a finalizer to call after
// fs.Parse: it validates the combination and yields the campaign.Config.
func CampaignFlags(fs *flag.FlagSet) func() (campaign.Config, error) {
	shards := fs.Int("shards", 1, "split each campaign into this many deterministic shards")
	shard := fs.Int("shard", -1, "run only this shard index (0-based) and write its checkpoint; -1 runs all shards")
	dir := fs.String("checkpoint-dir", "", "directory for per-shard checkpoint files (empty = in-memory, no files)")
	resume := fs.Bool("resume", false, "skip shards whose checkpoint in -checkpoint-dir already verifies; re-run the rest")
	return func() (campaign.Config, error) {
		if *shards < 1 {
			return campaign.Config{}, fmt.Errorf("-shards %d: want at least 1", *shards)
		}
		if *shard < -1 || *shard >= *shards {
			return campaign.Config{}, fmt.Errorf("-shard %d out of range (have %d shards; -1 runs all)", *shard, *shards)
		}
		if *shard >= 0 && *dir == "" {
			return campaign.Config{}, fmt.Errorf("-shard %d requires -checkpoint-dir (the shard's output would be lost)", *shard)
		}
		if *resume && *dir == "" {
			return campaign.Config{}, fmt.Errorf("-resume requires -checkpoint-dir")
		}
		return campaign.Config{Shards: *shards, Shard: *shard, Dir: *dir, Resume: *resume}, nil
	}
}

// maxTraceBuf caps the -trace-buf spill batch size. The recorder stages up
// to four batches (one recording, three spilling) of 24-byte records, and
// a text trace's spill expands one batch at a time into 56-byte Events,
// so the cap keeps staging under 101 MB for a binary trace and 160 MB for
// a text one.
const maxTraceBuf = 1 << 20

// ValidateTraceBuf checks a -trace-buf flag value before it reaches
// trace.NewSpillRecorder: 0 selects the default spill batch size and
// values up to maxTraceBuf are used as given. A negative value would flow
// raw into the staging buffer's capacity and panic mid-run, and a huge one
// would allocate it and run out of memory: reject both at the flag
// boundary with a message naming the flag and quoting the value.
func ValidateTraceBuf(v int) error {
	if v < 0 || v > maxTraceBuf {
		return fmt.Errorf("-trace-buf %d: the spill batch size must be in [0, %d] events (0 = default)", v, maxTraceBuf)
	}
	return nil
}

// ValidateTraceFormat checks the -trace-format / -trace flag combination
// at parse time. The format must be "text" or "binary", and a non-default
// format without -trace is rejected rather than silently ignored: the user
// asked for an encoding of a trace that will never be written, which is
// always a misassembled command line.
func ValidateTraceFormat(format, tracePath string) error {
	switch format {
	case "text", "binary":
	default:
		return fmt.Errorf("-trace-format %q: want text or binary", format)
	}
	if format != "text" && tracePath == "" {
		return fmt.Errorf("-trace-format %s without -trace: there is no trace to encode (pass -trace <file>)", format)
	}
	return nil
}

// ParseCrashes parses a crash schedule of the form "pid:time[,pid:time...]"
// (e.g. "1:30,4:120"): each pid >= 0 at most once, each time >= 0. An
// empty or blank string yields an empty schedule.
func ParseCrashes(s string) (map[sim.PID]sim.Time, error) {
	out := make(map[sim.PID]sim.Time)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		pidTime := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(pidTime) != 2 {
			return nil, fmt.Errorf("bad crash spec %q (want pid:time)", part)
		}
		pid, err := strconv.Atoi(pidTime[0])
		if err != nil {
			return nil, fmt.Errorf("bad pid in %q: %v", part, err)
		}
		if pid < 0 {
			return nil, fmt.Errorf("negative pid in %q", part)
		}
		at, err := strconv.ParseInt(pidTime[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in %q: %v", part, err)
		}
		if at < 0 {
			return nil, fmt.Errorf("negative time in %q", part)
		}
		if _, dup := out[sim.PID(pid)]; dup {
			return nil, fmt.Errorf("duplicate pid %d in schedule %q", pid, s)
		}
		out[sim.PID(pid)] = at
	}
	return out, nil
}

// ParseNet parses a network-model spec for the CLIs. Forms (parameters in
// brackets are optional) and the range each parameter must lie in:
//
//	async[:maxDelay]            reliable asynchronous, uniform delays; maxDelay >= 1
//	psync:gst:delta             partial synchrony (HPS); gst >= 0, delta >= 1
//	timely[:delta]              fixed-latency links; delta >= 1
//	pareto[:alpha[:cap]]        truncated heavy tail (Pareto, scale 2); finite alpha > 0, cap >= 2
//	lognormal[:sigma[:cap]]     truncated heavy tail (log-normal, median 3); finite sigma > 0, cap >= 1
//	alt[:period[:calmAfter]]    time-varying partial synchrony; period >= 1, calmAfter >= 0
//	asym[:maxSkew]              per-link asymmetric skew over async; maxSkew >= 1
//	lossy[:p[:maxDelay]]        iid per-copy loss over async; 0 <= p < sim.MaxLossP, maxDelay >= 1
func ParseNet(spec string) (sim.Model, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	name, args := parts[0], parts[1:]
	maxArgs := map[string]int{
		"async": 1, "psync": 2, "timely": 1, "pareto": 2, "lognormal": 2, "alt": 2, "asym": 1, "lossy": 2,
	}
	if max, known := maxArgs[name]; known && len(args) > max {
		return nil, fmt.Errorf("too many fields in net spec %q (%s takes at most %d)", spec, name, max)
	}
	num := func(i int, def int64) (int64, error) {
		if i >= len(args) {
			return def, nil
		}
		return strconv.ParseInt(args[i], 10, 64)
	}
	fnum := func(i int, def float64) (float64, error) {
		if i >= len(args) {
			return def, nil
		}
		return strconv.ParseFloat(args[i], 64)
	}
	// Every parameter is range-checked here: the sim models silently clamp
	// out-of-range values to defaults, which would turn a typo like
	// "async:-3" into a quietly different scenario instead of an error
	// (mirroring ParseCrashes' negative checks). The float checks are
	// written so that NaN, which fails every comparison, fails them too.
	switch name {
	case "async":
		max, err := num(0, 8)
		if err != nil {
			return nil, fmt.Errorf("bad async spec %q: %v", spec, err)
		}
		if max < 1 {
			return nil, fmt.Errorf("bad async spec %q: maxDelay %d, want >= 1", spec, max)
		}
		return sim.Async{MaxDelay: max}, nil
	case "psync":
		gst, err1 := num(0, 0)
		delta, err2 := num(1, 3)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad psync spec %q (want psync:gst:delta)", spec)
		}
		if gst < 0 {
			return nil, fmt.Errorf("bad psync spec %q: negative GST %d", spec, gst)
		}
		if delta < 1 {
			return nil, fmt.Errorf("bad psync spec %q: delta %d, want >= 1", spec, delta)
		}
		return sim.PartialSync{GST: gst, Delta: delta}, nil
	case "timely":
		delta, err := num(0, 1)
		if err != nil {
			return nil, fmt.Errorf("bad timely spec %q: %v", spec, err)
		}
		if delta < 1 {
			return nil, fmt.Errorf("bad timely spec %q: delta %d, want >= 1", spec, delta)
		}
		return sim.Timely{Delta: delta}, nil
	case "pareto":
		alpha, err1 := fnum(0, 1.5)
		cap, err2 := num(1, 15)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad pareto spec %q (want pareto[:alpha[:cap]])", spec)
		}
		if !(alpha > 0) || math.IsInf(alpha, 1) {
			return nil, fmt.Errorf("bad pareto spec %q: alpha %v, want finite > 0", spec, alpha)
		}
		if cap < 2 {
			return nil, fmt.Errorf("bad pareto spec %q: cap %d, want >= the scale (2)", spec, cap)
		}
		return sim.Pareto{Scale: 2, Alpha: alpha, Cap: cap}, nil
	case "lognormal":
		sigma, err1 := fnum(0, 1)
		cap, err2 := num(1, 15)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad lognormal spec %q (want lognormal[:sigma[:cap]])", spec)
		}
		if !(sigma > 0) || math.IsInf(sigma, 1) {
			return nil, fmt.Errorf("bad lognormal spec %q: sigma %v, want finite > 0", spec, sigma)
		}
		if cap < 1 {
			return nil, fmt.Errorf("bad lognormal spec %q: cap %d, want >= 1", spec, cap)
		}
		return sim.LogNormal{Median: 3, Sigma: sigma, Cap: cap}, nil
	case "alt":
		period, err1 := num(0, 40)
		calm, err2 := num(1, 200)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad alt spec %q (want alt[:period[:calmAfter]])", spec)
		}
		if period < 1 {
			return nil, fmt.Errorf("bad alt spec %q: period %d, want >= 1", spec, period)
		}
		if calm < 0 {
			return nil, fmt.Errorf("bad alt spec %q: negative calmAfter %d (0 oscillates forever)", spec, calm)
		}
		return sim.Alternating{Period: period, GoodDelta: 3, BadMax: 30, BadLoss: 0.3, CalmAfter: calm}, nil
	case "asym":
		skew, err := num(0, 10)
		if err != nil {
			return nil, fmt.Errorf("bad asym spec %q: %v", spec, err)
		}
		if skew < 1 {
			return nil, fmt.Errorf("bad asym spec %q: maxSkew %d, want >= 1", spec, skew)
		}
		return sim.AsymmetricLinks{Base: sim.Async{MaxDelay: 6}, MaxSkew: skew}, nil
	case "lossy":
		p, err1 := fnum(0, 0.2)
		max, err2 := num(1, 8)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad lossy spec %q (want lossy[:p[:maxDelay]])", spec)
		}
		// The upper bound matters as much as the lower: p >= MaxLossP would
		// be clamped by the model, silently running a different scenario —
		// and p = 1 would kill every link, which no liveness checker can
		// tell apart from a protocol bug.
		if !(p >= 0 && p < sim.MaxLossP) {
			return nil, fmt.Errorf("bad lossy spec %q: p %v, want 0 <= p < %v", spec, p, sim.MaxLossP)
		}
		if max < 1 {
			return nil, fmt.Errorf("bad lossy spec %q: maxDelay %d, want >= 1", spec, max)
		}
		return sim.Lossy{Base: sim.Async{MaxDelay: max}, P: p}, nil
	}
	return nil, fmt.Errorf("unknown network %q (want async, psync, timely, pareto, lognormal, alt, asym, or lossy)", name)
}

// ParsePartitions parses a partition schedule of the form
// "from-to@cut[,from-to@cut...]", e.g. "20-60@3,100-140@2": during virtual
// time [from, to) the population splits into {p < cut} and {p >= cut} and
// cross-cut copies are lost. An empty or blank string yields no windows.
// Mirroring ParseChurn/ParseCrashes, every field is range-checked at the
// flag boundary: from >= 0, to > from, cut >= 1 (a cut of 0 severs
// nothing and is always a typo).
func ParsePartitions(s string) ([]sim.PartitionWindow, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []sim.PartitionWindow
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		span, cutStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad partition window %q (want from-to@cut)", part)
		}
		fromStr, toStr, ok := strings.Cut(span, "-")
		if !ok {
			return nil, fmt.Errorf("bad partition window %q (want from-to@cut)", part)
		}
		from, err := strconv.ParseInt(fromStr, 10, 64)
		if err != nil || from < 0 {
			return nil, fmt.Errorf("bad partition start in %q (want a non-negative integer)", part)
		}
		to, err := strconv.ParseInt(toStr, 10, 64)
		if err != nil || to <= from {
			return nil, fmt.Errorf("bad partition end in %q (want an integer > the start)", part)
		}
		cut, err := strconv.Atoi(cutStr)
		if err != nil || cut < 1 {
			return nil, fmt.Errorf("bad partition cut in %q (want an integer >= 1)", part)
		}
		out = append(out, sim.PartitionWindow{From: from, To: to, Cut: sim.PID(cut)})
	}
	return out, nil
}

// ParseChurn parses a crash-recovery churn spec of the form
// "fraction[:cycles[:down[:up[:stagger]]]]", e.g. "0.2:2:40:60", with the
// fraction in (0, 1], cycles, down and up >= 1 and stagger >= 0. An empty
// string yields the zero spec (no churn). Stagger defaults to 7, so
// successive churners' outages overlap partially instead of aligning; an
// explicit stagger of 0 keeps churners in phase (reproduce a default CLI
// run programmatically by setting Stagger: 7 explicitly — sim.ChurnSpec's
// own zero value is in-phase).
func ParseChurn(spec string) (sim.ChurnSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return sim.ChurnSpec{}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 5 {
		return sim.ChurnSpec{}, fmt.Errorf("bad churn spec %q (want fraction[:cycles[:down[:up[:stagger]]]])", spec)
	}
	frac, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || !(frac > 0 && frac <= 1) {
		return sim.ChurnSpec{}, fmt.Errorf("bad churn fraction in %q (want a value in (0, 1])", spec)
	}
	out := sim.ChurnSpec{Fraction: frac, Stagger: 7}
	for i, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 64)
		// Stagger (field 4) may be 0 — churners in phase; the cycle
		// parameters must be positive.
		if err != nil || v < 0 || (v == 0 && i < 3) {
			return sim.ChurnSpec{}, fmt.Errorf("bad churn field %q in %q (want a positive integer)", p, spec)
		}
		switch i {
		case 0:
			out.Cycles = int(v)
		case 1:
			out.Down = v
		case 2:
			out.Up = v
		case 3:
			out.Stagger = v
		}
	}
	return out, nil
}

// FormatTagCounts renders a message-tag count map deterministically, e.g.
// "COORD:5 PH1:10".
func FormatTagCounts(byTag map[string]int) string {
	keys := make([]string, 0, len(byTag))
	for k := range byTag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, byTag[k]))
	}
	return strings.Join(parts, " ")
}
