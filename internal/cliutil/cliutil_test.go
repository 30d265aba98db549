package cliutil

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// TestCampaignFlags checks parse-and-validate of the sharding flag set.
func TestCampaignFlags(t *testing.T) {
	parse := func(args ...string) (campaign.Config, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		finish := CampaignFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("flag parse %v: %v", args, err)
		}
		return finish()
	}

	cfg, err := parse()
	if err != nil || !reflect.DeepEqual(cfg, campaign.Config{Shards: 1, Shard: -1}) {
		t.Fatalf("default campaign config = %+v, %v", cfg, err)
	}
	cfg, err = parse("-shards", "4", "-shard", "2", "-checkpoint-dir", "/tmp/x")
	if err != nil || cfg.Shards != 4 || cfg.Shard != 2 || cfg.Dir != "/tmp/x" {
		t.Fatalf("shard-only config = %+v, %v", cfg, err)
	}
	cfg, err = parse("-shards", "4", "-checkpoint-dir", "/tmp/x", "-resume")
	if err != nil || !cfg.Resume || cfg.Shard != -1 {
		t.Fatalf("resume config = %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"-shards", "0"},
		{"-shards", "-2"},
		{"-shards", "3", "-shard", "3", "-checkpoint-dir", "/tmp/x"},
		{"-shard", "-2"},
		{"-shards", "3", "-shard", "1"}, // shard without checkpoint dir
		{"-resume"},                     // resume without checkpoint dir
	} {
		if cfg, err := parse(bad...); err == nil {
			t.Errorf("CampaignFlags(%v) = %+v, want error", bad, cfg)
		}
	}
}

func TestParseCrashes(t *testing.T) {
	tests := []struct {
		in      string
		want    map[sim.PID]sim.Time
		wantErr bool
	}{
		{"", map[sim.PID]sim.Time{}, false},
		{"   ", map[sim.PID]sim.Time{}, false},
		{"1:30", map[sim.PID]sim.Time{1: 30}, false},
		{"1:30,4:120", map[sim.PID]sim.Time{1: 30, 4: 120}, false},
		{" 2:5 , 3:9 ", map[sim.PID]sim.Time{2: 5, 3: 9}, false},
		{"1", nil, true},
		{"x:30", nil, true},
		{"1:y", nil, true},
		{"-1:30", nil, true},
		{"1:-30", nil, true},
		{"1:30,1:40", nil, true},
	}
	for _, tt := range tests {
		got, err := ParseCrashes(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseCrashes(%q) = %v, want error", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCrashes(%q): %v", tt.in, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("ParseCrashes(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for p, at := range tt.want {
			if got[p] != at {
				t.Errorf("ParseCrashes(%q)[%d] = %d, want %d", tt.in, p, got[p], at)
			}
		}
	}
}

func TestFormatTagCounts(t *testing.T) {
	got := FormatTagCounts(map[string]int{"PH1": 10, "COORD": 5})
	if got != "COORD:5 PH1:10" {
		t.Errorf("FormatTagCounts = %q", got)
	}
	if got := FormatTagCounts(nil); got != "" {
		t.Errorf("FormatTagCounts(nil) = %q", got)
	}
}

func TestParseNet(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"async", "async[1..8]"},
		{"async:12", "async[1..12]"},
		{"psync:50:3", "partial-sync[GST=50 δ=3]"},
		{"timely:4", "timely[δ=4]"},
		{"pareto", "pareto[xm=2 α=1.50 cap=15]"},
		{"pareto:1.1:30", "pareto[xm=2 α=1.10 cap=30]"},
		{"lognormal:0.7", "lognormal[med=3 σ=0.70 cap=15]"},
		{"alt:40:200", "alternating[T=40 δ=3 bad=30 loss=0.30 calm=200]"},
		{"asym:20", "asym[async[1..6] skew<=20]"},
	}
	for _, tt := range good {
		m, err := ParseNet(tt.in)
		if err != nil {
			t.Errorf("ParseNet(%q): %v", tt.in, err)
			continue
		}
		if m.String() != tt.want {
			t.Errorf("ParseNet(%q) = %s, want %s", tt.in, m, tt.want)
		}
	}
	for _, bad := range []string{"", "warp", "async:x", "pareto:x", "psync:1:y", "alt:z"} {
		if m, err := ParseNet(bad); err == nil {
			t.Errorf("ParseNet(%q) = %v, want error", bad, m)
		}
	}
}

// TestParseNetRejectsOutOfRangeParams pins the fail-fast contract: the sim
// models clamp out-of-range parameters to defaults, so a negative or zero
// value must be rejected at the CLI instead of silently skewing the
// scenario.
func TestParseNetRejectsOutOfRangeParams(t *testing.T) {
	for _, bad := range []string{
		"async:-3", "async:0",
		"timely:-1", "timely:0",
		"psync:-10:3", "psync:50:0", "psync:50:-1", "psync:-10:0",
		"pareto:-1:5", "pareto:0", "pareto:1.5:-5", "pareto:1.5:1",
		"lognormal:-0.7", "lognormal:0", "lognormal:1:-15", "lognormal:1:0",
		"alt:-40", "alt:0", "alt:40:-200",
		"asym:-10", "asym:0",
		// NaN fails every comparison, so a check written as "reject if
		// out of range" lets it through; ±Inf is no parameter either.
		"pareto:NaN", "pareto:+Inf", "lognormal:NaN", "lognormal:+Inf", "lossy:NaN", "lossy:-Inf",
	} {
		if m, err := ParseNet(bad); err == nil {
			t.Errorf("ParseNet(%q) = %v, want error (out-of-range parameter must not clamp)", bad, m)
		}
	}
	// Boundary values that are legitimately in range must still parse.
	for _, good := range []string{"async:1", "timely:1", "psync:0:1", "pareto:0.1:2", "lognormal:0.1:1", "alt:1:0", "asym:1"} {
		if _, err := ParseNet(good); err != nil {
			t.Errorf("ParseNet(%q): %v, want ok (boundary value)", good, err)
		}
	}
}

func TestParseChurn(t *testing.T) {
	spec, err := ParseChurn("0.2:2:40:60")
	if err != nil {
		t.Fatalf("ParseChurn: %v", err)
	}
	if spec.Fraction != 0.2 || spec.Cycles != 2 || spec.Down != 40 || spec.Up != 60 {
		t.Fatalf("ParseChurn = %+v", spec)
	}
	if spec, err := ParseChurn("0.5"); err != nil || spec.Fraction != 0.5 {
		t.Fatalf("ParseChurn(0.5) = %+v, %v", spec, err)
	}
	if spec, err := ParseChurn(""); err != nil || spec.Fraction != 0 {
		t.Fatalf("ParseChurn(\"\") = %+v, %v", spec, err)
	}
	// The optional fifth field overrides the default stagger of 7; 0 keeps
	// churners in phase (only the cycle parameters must be positive).
	if spec, err := ParseChurn("0.2:2:40:60:3"); err != nil || spec.Stagger != 3 {
		t.Fatalf("ParseChurn(0.2:2:40:60:3) = %+v, %v", spec, err)
	}
	if spec, err := ParseChurn("0.2:2:40:60:0"); err != nil || spec.Stagger != 0 {
		t.Fatalf("ParseChurn(0.2:2:40:60:0) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"x", "0", "1.5", "-0.2", "0.2:0", "0.2:2:0", "0.2:2:40:0", "0.2:2:40:60:7:9", "0.2:2:40:60:-1", "0.2:a", "NaN", "NaN:1:60", "+Inf", "-Inf"} {
		if spec, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) = %+v, want error", bad, spec)
		}
	}
}

// TestParseNetLossy pins the first-class loss model's spec: good forms,
// boundary values, and the MaxLossP rejection (the model would clamp, and
// clamping at the CLI boundary is exactly the silent-scenario-skew bug
// class ParseNet exists to prevent).
func TestParseNetLossy(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"lossy", "lossy[p=0.20 async[1..8]]"},
		{"lossy:0.5", "lossy[p=0.50 async[1..8]]"},
		{"lossy:0.5:12", "lossy[p=0.50 async[1..12]]"},
		{"lossy:0", "lossy[p=0.00 async[1..8]]"},     // boundary: lossless
		{"lossy:0.89", "lossy[p=0.89 async[1..8]]"},  // boundary: just under MaxLossP
		{"lossy:0.2:1", "lossy[p=0.20 async[1..1]]"}, // boundary: minimum delay
	}
	for _, tt := range good {
		m, err := ParseNet(tt.in)
		if err != nil {
			t.Errorf("ParseNet(%q): %v", tt.in, err)
			continue
		}
		if m.String() != tt.want {
			t.Errorf("ParseNet(%q) = %s, want %s", tt.in, m, tt.want)
		}
	}
	for _, bad := range []string{
		"lossy:x", "lossy:0.2:y", // malformed numbers
		"lossy:-0.1",                        // negative probability
		"lossy:0.9", "lossy:1", "lossy:1.5", // at or above MaxLossP: would clamp
		"lossy:0.2:0", "lossy:0.2:-3", // out-of-range base delay
		"lossy:0.2:8:9", // extra field
	} {
		if m, err := ParseNet(bad); err == nil {
			t.Errorf("ParseNet(%q) = %v, want error", bad, m)
		}
	}
}

// TestParsePartitions covers the partition-schedule flag end to end: the
// happy path, blank input, and every malformed-field error path (matching
// the ParseChurn/ParseCrashes precedent).
func TestParsePartitions(t *testing.T) {
	ws, err := ParsePartitions("20-60@3,100-140@2")
	if err != nil {
		t.Fatalf("ParsePartitions: %v", err)
	}
	want := []sim.PartitionWindow{{From: 20, To: 60, Cut: 3}, {From: 100, To: 140, Cut: 2}}
	if len(ws) != 2 || ws[0] != want[0] || ws[1] != want[1] {
		t.Fatalf("ParsePartitions = %+v, want %+v", ws, want)
	}
	if ws, err := ParsePartitions("  "); err != nil || ws != nil {
		t.Fatalf("ParsePartitions(blank) = %+v, %v", ws, err)
	}
	if ws, err := ParsePartitions(" 0-1@1 "); err != nil || len(ws) != 1 {
		// Boundary: earliest possible start, shortest possible window,
		// smallest possible cut.
		t.Fatalf("ParsePartitions(0-1@1) = %+v, %v", ws, err)
	}
	for _, bad := range []string{
		"20-60",       // missing cut
		"20@3",        // missing span
		"x-60@3",      // malformed start
		"20-y@3",      // malformed end
		"20-60@z",     // malformed cut
		"-5-60@3",     // negative start
		"20-20@3",     // empty window (to == from)
		"60-20@3",     // inverted window
		"20-60@0",     // cut 0 severs nothing
		"20-60@-2",    // negative cut
		"20-60@3,,",   // empty trailing entry
		"20-60@3 4-5", // garbage second entry
	} {
		if ws, err := ParsePartitions(bad); err == nil {
			t.Errorf("ParsePartitions(%q) = %+v, want error", bad, ws)
		}
	}
}

// TestValidatePartitionN pins the cut-vs-population check: a cut at or
// beyond n puts everyone on one side.
func TestValidatePartitionN(t *testing.T) {
	ws := []sim.PartitionWindow{{From: 10, To: 20, Cut: 3}}
	if err := ValidatePartitionN(ws, 5); err != nil {
		t.Errorf("cut 3 of n=5: %v, want nil", err)
	}
	if err := ValidatePartitionN(ws, 4); err != nil {
		t.Errorf("cut 3 of n=4 (boundary): %v, want nil", err)
	}
	if err := ValidatePartitionN(ws, 3); err == nil {
		t.Error("cut 3 of n=3 severs nothing, want error")
	}
	if err := ValidatePartitionN(ws, 2); err == nil {
		t.Error("cut 3 of n=2 severs nothing, want error")
	}
	if err := ValidatePartitionN(nil, 1); err != nil {
		t.Errorf("empty schedule: %v, want nil", err)
	}
}

// TestValidatePartitionHorizon pins the truncating-horizon check: a window
// still open at the horizon means the network never heals inside the run,
// exactly like a churn schedule the horizon cuts short.
func TestValidatePartitionHorizon(t *testing.T) {
	ws := []sim.PartitionWindow{{From: 10, To: 60, Cut: 2}, {From: 70, To: 90, Cut: 2}}
	if err := ValidatePartitionHorizon(ws, 100); err != nil {
		t.Errorf("horizon 100 > last end 90: %v, want nil", err)
	}
	if err := ValidatePartitionHorizon(ws, 91); err != nil {
		t.Errorf("horizon 91 (boundary: strictly after the last end): %v, want nil", err)
	}
	if err := ValidatePartitionHorizon(ws, 90); err == nil {
		t.Error("horizon 90 == last end truncates the heal, want error")
	}
	if err := ValidatePartitionHorizon(ws, 50); err == nil {
		t.Error("horizon 50 leaves a window open, want error")
	}
	if err := ValidatePartitionHorizon(nil, 1); err != nil {
		t.Errorf("empty schedule: %v, want nil", err)
	}
}

func TestParseNetRejectsExtraFields(t *testing.T) {
	for _, bad := range []string{"async:8:9", "asym:5:9", "psync:50:3:7", "timely:1:2"} {
		if m, err := ParseNet(bad); err == nil {
			t.Errorf("ParseNet(%q) = %v, want error (extra fields must not be dropped)", bad, m)
		}
	}
}

// TestValidateTraceBuf pins the -trace-buf boundary: 0 (default) and
// positive sizes pass, negative sizes are rejected with an error naming
// the flag instead of flowing into the recorder and panicking mid-run.
func TestValidateTraceBuf(t *testing.T) {
	for _, ok := range []int{0, 1, 4096, 1 << 20} {
		if err := ValidateTraceBuf(ok); err != nil {
			t.Errorf("ValidateTraceBuf(%d) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []int{-1, -4096} {
		err := ValidateTraceBuf(bad)
		if err == nil {
			t.Errorf("ValidateTraceBuf(%d) = nil, want error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "-trace-buf") {
			t.Errorf("ValidateTraceBuf(%d) error %q does not name the flag", bad, err)
		}
	}
}

func TestValidateTraceFormat(t *testing.T) {
	cases := []struct {
		format, trace string
		wantErr       string // substring; empty = valid
	}{
		{"text", "", ""},
		{"text", "out.trace", ""},
		{"binary", "out.trace", ""},
		{"binary", "", "without -trace"},
		{"protobuf", "out.trace", "want text or binary"},
		{"", "", "want text or binary"},
	}
	for _, c := range cases {
		err := ValidateTraceFormat(c.format, c.trace)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateTraceFormat(%q, %q) = %v, want nil", c.format, c.trace, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateTraceFormat(%q, %q) = %v, want error containing %q", c.format, c.trace, err, c.wantErr)
		}
	}
}

func TestValidateBeaters(t *testing.T) {
	cases := []struct {
		beaters, n int
		wantErr    string // substring; empty = valid
	}{
		{0, 5, ""}, // 0 = all n
		{1, 5, ""}, // boundary: minimum selective value
		{5, 5, ""}, // boundary: exactly n
		{6, 5, "exceeds n=5"},
		{1, 0, "exceeds n=0"},
		{-1, 5, "must be ≥ 0"},
	}
	for _, c := range cases {
		err := ValidateBeaters(c.beaters, c.n)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateBeaters(%d, %d) = %v, want nil", c.beaters, c.n, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ValidateBeaters(%d, %d) = %v, want error containing %q", c.beaters, c.n, err, c.wantErr)
		}
	}
}
