package wgtt

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadConfigPrecedence pins the flags > config file > defaults
// contract: an explicit flag beats the file, the file beats
// DefaultDeployOptions, and untouched options keep their defaults.
func TestLoadConfigPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "opts.json")
	file := `{"seed": 7, "segments": "4x7.5,4x7.5", "channel": "mmwave60g"}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg, opts, err := LoadConfig(fs, []string{"-config", path, "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 {
		t.Errorf("flag -seed 9 lost to the file: got %d", cfg.Seed)
	}
	if len(cfg.Segments) != 2 || opts.Segments != "4x7.5,4x7.5" {
		t.Errorf("file segments not applied: %+v", cfg.Segments)
	}
	if cfg.ChannelBackend != "mmwave60g" {
		t.Errorf("file channel not applied: %q", cfg.ChannelBackend)
	}
	if cfg.Scheme != SchemeWGTT {
		t.Errorf("untouched option lost its default: scheme %v", cfg.Scheme)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("resolved config does not validate: %v", err)
	}
}

func TestLoadConfigNoFile(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg, _, err := LoadConfig(fs, []string{"-channel", "mmwave60g", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 3 || cfg.ChannelBackend != "mmwave60g" {
		t.Errorf("flags not applied: seed %d channel %q", cfg.Seed, cfg.ChannelBackend)
	}
}

func TestLoadConfigRejectsUnknownFileKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "opts.json")
	if err := os.WriteFile(path, []byte(`{"sede": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	if _, _, err := LoadConfig(fs, []string{"-config", path}); err == nil {
		t.Fatal("a config file with a misspelled key was accepted")
	}
}

// TestSharedFlagNamesComplete keeps the config file and the command
// line one surface: the JSON keys of DeployOptions and the flags
// RegisterFlags registers must be the same set, so every file key names
// the flag that overrides it.
func TestSharedFlagNamesComplete(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var o DeployOptions
	RegisterFlags(fs, &o)
	flags := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for key := range keys {
		if !flags[key] {
			t.Errorf("config-file key %q names no flag RegisterFlags registers", key)
		}
		delete(flags, key)
	}
	for name := range flags {
		t.Errorf("RegisterFlags registers %q but no config-file key names it", name)
	}
}
