package core

import "testing"

func TestDefaultConfigMatchesPaperSettings(t *testing.T) {
	c := DefaultConfig(MADDPG)
	if c.BatchSize != 1024 {
		t.Fatalf("BatchSize = %d, want 1024", c.BatchSize)
	}
	if c.BufferCapacity != 1_000_000 {
		t.Fatalf("BufferCapacity = %d, want 1M", c.BufferCapacity)
	}
	if c.LR != 0.01 {
		t.Fatalf("LR = %v, want 0.01", c.LR)
	}
	if c.Gamma != 0.95 {
		t.Fatalf("Gamma = %v, want 0.95", c.Gamma)
	}
	if c.Tau != 0.01 {
		t.Fatalf("Tau = %v, want 0.01", c.Tau)
	}
	if c.HiddenSize != 64 {
		t.Fatalf("HiddenSize = %v, want 64", c.HiddenSize)
	}
	if c.MaxEpisodeLen != 25 {
		t.Fatalf("MaxEpisodeLen = %v, want 25", c.MaxEpisodeLen)
	}
	if c.UpdateEvery != 100 {
		t.Fatalf("UpdateEvery = %v, want 100", c.UpdateEvery)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	base := DefaultConfig(MADDPG)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"batch", func(c *Config) { c.BatchSize = 0 }},
		{"capacity", func(c *Config) { c.BufferCapacity = 10 }},
		{"gamma", func(c *Config) { c.Gamma = 1.5 }},
		{"tau", func(c *Config) { c.Tau = 0 }},
		{"hidden", func(c *Config) { c.HiddenSize = 0 }},
		{"eplen", func(c *Config) { c.MaxEpisodeLen = 0 }},
		{"updateevery", func(c *Config) { c.UpdateEvery = 0 }},
		{"gumbel", func(c *Config) { c.GumbelTau = 0 }},
		{"locality", func(c *Config) { c.Sampler = SamplerLocality; c.Neighbors = 0 }},
	}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: invalid config accepted", m.name)
		}
	}
	bad := DefaultConfig(MATD3)
	bad.PolicyDelay = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("MATD3 with PolicyDelay 0 accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if MADDPG.String() != "maddpg" || MATD3.String() != "matd3" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm should still render")
	}
	for kind, want := range map[SamplerKind]string{
		SamplerUniform:    "uniform",
		SamplerLocality:   "locality",
		SamplerPER:        "per",
		SamplerIPLocality: "ip-locality",
	} {
		if kind.String() != want {
			t.Fatalf("sampler %d = %q, want %q", kind, kind.String(), want)
		}
	}
}
