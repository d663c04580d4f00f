package cluster

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func env(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

func TestParseNodeConfigFlags(t *testing.T) {
	cfg, err := ParseNodeConfig([]string{
		"-name", "node7",
		"-listen", "127.0.0.1:7101",
		"-advertise", "10.0.0.7:7101",
		"-http", "127.0.0.1:9101",
		"-seed", "127.0.0.1:7100",
		"-heartbeat", "50ms",
		"-dead-after", "400ms",
		"-repair", "200ms",
		"-replay-buffer", "1024",
	}, nil)
	if err != nil {
		t.Fatalf("ParseNodeConfig: %v", err)
	}
	if cfg.Name != "node7" || cfg.Listen != "127.0.0.1:7101" || cfg.Advertise != "10.0.0.7:7101" {
		t.Fatalf("identity fields = %+v", cfg)
	}
	if cfg.HTTPListen != "127.0.0.1:9101" || cfg.Seed != "127.0.0.1:7100" {
		t.Fatalf("address fields = %+v", cfg)
	}
	if cfg.Heartbeat != 50*time.Millisecond || cfg.DeadAfter != 400*time.Millisecond ||
		cfg.RepairInterval != 200*time.Millisecond {
		t.Fatalf("timing fields = %+v", cfg)
	}
	if cfg.ReplayBuffer != 1024 {
		t.Fatalf("ReplayBuffer = %d", cfg.ReplayBuffer)
	}
}

func TestParseNodeConfigEnvFallback(t *testing.T) {
	vars := map[string]string{
		"SR3_NAME":      "envnode",
		"SR3_LISTEN":    "127.0.0.1:7201",
		"SR3_SEED":      "127.0.0.1:7100",
		"SR3_HEARTBEAT": "80ms",
	}
	cfg, err := ParseNodeConfig(nil, env(vars))
	if err != nil {
		t.Fatalf("ParseNodeConfig: %v", err)
	}
	if cfg.Name != "envnode" || cfg.Listen != "127.0.0.1:7201" || cfg.Heartbeat != 80*time.Millisecond {
		t.Fatalf("env fields = %+v", cfg)
	}
	// DeadAfter defaults to 8x the (env-provided) heartbeat.
	if cfg.DeadAfter != 8*80*time.Millisecond {
		t.Fatalf("DeadAfter = %v", cfg.DeadAfter)
	}
}

func TestParseNodeConfigFlagBeatsEnv(t *testing.T) {
	vars := map[string]string{"SR3_NAME": "fromenv", "SR3_SEED": "127.0.0.1:1"}
	cfg, err := ParseNodeConfig([]string{"-name", "fromflag"}, env(vars))
	if err != nil {
		t.Fatalf("ParseNodeConfig: %v", err)
	}
	if cfg.Name != "fromflag" {
		t.Fatalf("Name = %q, want flag to beat env", cfg.Name)
	}
	if cfg.Seed != "127.0.0.1:1" {
		t.Fatalf("Seed = %q, want env fallback", cfg.Seed)
	}
}

func TestParseNodeConfigDefaults(t *testing.T) {
	cfg, err := ParseNodeConfig([]string{"-seed", "127.0.0.1:7100"}, nil)
	if err != nil {
		t.Fatalf("ParseNodeConfig: %v", err)
	}
	hn, _ := os.Hostname()
	if cfg.Name != hn {
		t.Fatalf("Name = %q, want hostname %q", cfg.Name, hn)
	}
	if cfg.Listen != "127.0.0.1:0" {
		t.Fatalf("Listen = %q", cfg.Listen)
	}
	if cfg.Heartbeat != 100*time.Millisecond || cfg.DeadAfter != 800*time.Millisecond {
		t.Fatalf("timing defaults = %+v", cfg)
	}
	if cfg.RepairInterval != 500*time.Millisecond {
		t.Fatalf("timing defaults = %+v", cfg)
	}
	if cfg.ReplayBuffer != 1<<16 {
		t.Fatalf("ReplayBuffer = %d", cfg.ReplayBuffer)
	}
	if cfg.LogWriter != os.Stderr {
		t.Fatalf("LogWriter = %v", cfg.LogWriter)
	}
}

func TestParseNodeConfigErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"positional junk", []string{"-seed", "127.0.0.1:1", "extra"}, "positional"},
		{"bad heartbeat", []string{"-seed", "127.0.0.1:1", "-heartbeat", "soon"}, "heartbeat"},
		{"negative heartbeat", []string{"-seed", "127.0.0.1:1", "-heartbeat", "-5ms"}, "positive"},
		{"bad dead-after", []string{"-seed", "127.0.0.1:1", "-dead-after", "never"}, "dead-after"},
		{"bad replay buffer", []string{"-seed", "127.0.0.1:1", "-replay-buffer", "lots"}, "replay-buffer"},
		{"zero replay buffer", []string{"-seed", "127.0.0.1:1", "-replay-buffer", "0"}, "must be positive"},
		{"negative replay buffer", []string{"-seed", "127.0.0.1:1", "-replay-buffer", "-8"}, "must be positive"},
		{"bad listen", []string{"-seed", "127.0.0.1:1", "-listen", "nohostport"}, "listen"},
		{"bad advertise", []string{"-seed", "127.0.0.1:1", "-advertise", "nope"}, "advertise"},
		{"bad seed addr", []string{"-seed", "justahost"}, "seed"},
		{"bad http", []string{"-seed", "127.0.0.1:1", "-http", "x"}, "http"},
		{"dead-after too short", []string{"-seed", "127.0.0.1:1", "-heartbeat", "100ms", "-dead-after", "150ms"}, "2x heartbeat"},
		{"seed without topology", nil, "topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseNodeConfig(tc.args, nil)
			if err == nil {
				t.Fatalf("ParseNodeConfig(%v) succeeded", tc.args)
			}
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("error %v is not ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestNodeConfigLoadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.yaml")
	if err := os.WriteFile(path, []byte(specDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseNodeConfig([]string{"-name", "n", "-topo", path}, nil)
	if err != nil {
		t.Fatalf("ParseNodeConfig: %v", err)
	}
	s, err := cfg.LoadSpec()
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if s.Name != "wc" || len(s.Components) != 3 {
		t.Fatalf("spec = %+v", s)
	}

	// In-memory Spec wins over the file.
	cfg.Spec = &Spec{Name: "inmem"}
	if s, err = cfg.LoadSpec(); err != nil || s.Name != "inmem" {
		t.Fatalf("LoadSpec with Spec set = %v, %v", s, err)
	}

	// Missing file is a config error.
	cfg.Spec = nil
	cfg.TopoFile = filepath.Join(dir, "missing.yaml")
	if _, err = cfg.LoadSpec(); err == nil {
		t.Fatal("LoadSpec with missing file succeeded")
	}
}

// FuzzParseNodeConfig feeds arbitrary argument/environment splits through
// the parser: it must never panic, and every accepted config must satisfy
// the validated invariants.
func FuzzParseNodeConfig(f *testing.F) {
	f.Add("-name a -listen 127.0.0.1:0 -seed 127.0.0.1:7100", "")
	f.Add("-topo x.yaml -heartbeat 50ms -dead-after 1s", "envnode")
	f.Add("-replay-buffer 10 -repair 1s", "127.0.0.1:9")
	f.Add("-heartbeat -- -dead-after", "")
	f.Add("-name \x00 -listen :::", "")
	f.Fuzz(func(t *testing.T, argstr, envval string) {
		args := strings.Fields(argstr)
		vars := map[string]string{"SR3_SEED": envval, "SR3_NAME": envval}
		cfg, err := ParseNodeConfig(args, env(vars))
		if err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("non-ErrConfig error %v for args %q", err, args)
			}
			return
		}
		if cfg.DeadAfter < 2*cfg.Heartbeat {
			t.Fatalf("accepted config violates dead-after >= 2x heartbeat: %+v", cfg)
		}
		if cfg.Heartbeat <= 0 || cfg.RepairInterval <= 0 || cfg.ReplayBuffer <= 0 {
			t.Fatalf("accepted config has non-positive knob: %+v", cfg)
		}
		if _, _, err := net.SplitHostPort(cfg.Listen); err != nil {
			t.Fatalf("accepted config has bad listen %q", cfg.Listen)
		}
	})
}
