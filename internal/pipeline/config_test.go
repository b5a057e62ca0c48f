package pipeline

// Table-driven coverage of Config.validate's error paths, plus exact stall
// accounting on programs constructed to trigger one known hazard each: the
// Stats fields (and their TotalStalls sum) are the contract both the metrics
// counter family and the farm's aggregate statistics are built on.

import (
	"io"
	"strings"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/qat"
)

func TestConfigValidate(t *testing.T) {
	base := Config{Config: qat.Config{Ways: 8}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring of the New error, "" for success
	}{
		{"default-config", func(c *Config) { *c = DefaultConfig() }, ""},
		{"student-config", func(c *Config) { *c = StudentConfig() }, ""},
		{"four-stage", func(c *Config) { c.Stages = 4 }, ""},
		{"zero-stages", func(c *Config) { c.Stages = 0 }, "stages unsupported"},
		{"three-stages", func(c *Config) { c.Stages = 3 }, "stages unsupported"},
		{"six-stages", func(c *Config) { c.Stages = 6 }, "stages unsupported"},
		{"zero-mul-latency", func(c *Config) { c.MulLatency = 0 }, "latencies must be >= 1"},
		{"negative-mul-latency", func(c *Config) { c.MulLatency = -2 }, "latencies must be >= 1"},
		{"zero-next-latency", func(c *Config) { c.QatNextLatency = 0 }, "latencies must be >= 1"},
		{"negative-ways", func(c *Config) { c.Ways = -1 }, "ways -1 out of range"},
		{"too-many-ways", func(c *Config) { c.Ways = aob.MaxWays + 1 }, "out of range"},
		{"zero-ways-means-max", func(c *Config) { c.Ways = 0 }, ""},
		{"max-ways", func(c *Config) { c.Ways = aob.MaxWays }, ""},
		{"re-beyond-dense", func(c *Config) { c.Backend, c.Ways = qat.BackendRE, qat.MaxREWays }, ""},
		{"re-too-many-ways", func(c *Config) { c.Backend, c.Ways = qat.BackendRE, qat.MaxREWays+1 }, "out of range"},
		{"unknown-backend", func(c *Config) { c.Backend = "fpga" }, "unknown backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			p, err := New(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New(%+v): %v", cfg, err)
				}
				if p == nil {
					t.Fatal("New returned nil pipeline without error")
				}
				// The register file is the backend's canonical one: ways 0
				// is the full hardware, whatever the mode.
				want := cfg.Ways
				if want == 0 {
					want = aob.MaxWays
				}
				if got := p.Machine().Qat.Ways(); got != want {
					t.Fatalf("New(%+v) built a %d-way register file, want %d", cfg, got, want)
				}
				return
			}
			if err == nil {
				t.Fatalf("New(%+v) succeeded, want error containing %q", cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New(%+v) error %q, want substring %q", cfg, err, tc.wantErr)
			}
		})
	}
}

// runStats assembles src, runs it on cfg and returns the Stats.
func runStats(t *testing.T, src string, cfg Config) Stats {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetOutput(io.Discard)
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100_000); err != nil {
		t.Fatal(err)
	}
	return p.Stats
}

// TestStallAccountingKnownHazards runs one program per hazard class and
// checks the exact Stats breakdown plus the TotalStalls invariant.
func TestStallAccountingKnownHazards(t *testing.T) {
	fwd5 := Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	cases := []struct {
		name string
		src  string
		cfg  Config
		// want holds the expected non-zero stall fields; unlisted stall
		// fields must be zero.
		want Stats
	}{
		{
			// load feeding the very next instruction: one bubble with
			// forwarding on a 5-stage machine, and nothing else.
			name: "load-use",
			src: `
			lex $1,16
			load $2,$1
			add $3,$2
			lex $0,0
			sys`,
			cfg:  fwd5,
			want: Stats{LoadUseStalls: 1},
		},
		{
			// the same consumer one slot later needs no stall at all.
			name: "load-with-gap",
			src: `
			lex $1,16
			load $2,$1
			lex $4,7
			add $3,$2
			lex $0,0
			sys`,
			cfg:  fwd5,
			want: Stats{},
		},
		{
			// forwarding off: the add waits for the lex chain to write back.
			name: "raw-no-forwarding",
			src: `
			lex $1,5
			add $2,$1
			lex $0,0
			sys`,
			cfg:  Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: false, MulLatency: 1, QatNextLatency: 1},
			want: Stats{RawStalls: 4},
		},
		{
			// a 3-cycle multiply occupies EX for two extra cycles.
			name: "ex-busy-mul",
			src: `
			lex $1,3
			lex $2,4
			mul $1,$2
			lex $0,0
			sys`,
			cfg:  Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: true, MulLatency: 3, QatNextLatency: 1},
			want: Stats{ExBusyStalls: 2},
		},
		{
			// every two-word instruction charges one fetch bubble when the
			// narrow-fetch penalty is on; the three-operand Qat ops are the
			// two-word encodings.
			name: "fetch-penalty",
			src: `
			and @1,@2,@3
			lex $0,0
			sys`,
			cfg:  Config{Config: qat.Config{Ways: 4}, Stages: 5, Forwarding: true, TwoWordFetchPenalty: true, MulLatency: 1, QatNextLatency: 1},
			want: Stats{FetchStalls: 1},
		},
		{
			// a taken forward branch squashes the wrong-path slots behind it.
			name: "taken-branch-flush",
			src: `
			lex $1,1
			brt $1,skip
			not $2
			not $3
			skip:
			lex $0,0
			sys`,
			cfg:  fwd5,
			want: Stats{BranchFlushes: 1, FlushCycles: 2},
		},
		{
			// a not-taken branch costs nothing on this static-not-taken frontend.
			name: "untaken-branch",
			src: `
			lex $1,0
			brt $1,skip
			not $2
			skip:
			lex $0,0
			sys`,
			cfg:  fwd5,
			want: Stats{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := runStats(t, tc.src, tc.cfg)
			got := Stats{
				LoadUseStalls: s.LoadUseStalls,
				RawStalls:     s.RawStalls,
				ExBusyStalls:  s.ExBusyStalls,
				FetchStalls:   s.FetchStalls,
				BranchFlushes: s.BranchFlushes,
				FlushCycles:   s.FlushCycles,
			}
			want := tc.want
			if got != want {
				t.Errorf("stall breakdown = %+v, want %+v", got, want)
			}
			if sum := s.LoadUseStalls + s.RawStalls + s.ExBusyStalls + s.FetchStalls + s.FlushCycles; s.TotalStalls() != sum {
				t.Errorf("TotalStalls() = %d, field sum %d", s.TotalStalls(), sum)
			}
		})
	}
}
