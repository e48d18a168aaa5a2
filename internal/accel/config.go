package accel

import (
	"encoding/json"
	"fmt"
	"os"
)

// MarshalJSON-compatible notes: Config is a plain data structure except
// for the Tracer hook, which is skipped during (de)serialization.

type configJSON Config

// MarshalJSON serializes the configuration (the Tracer hook is omitted).
func (c Config) MarshalJSON() ([]byte, error) {
	cc := c
	cc.Tracer = nil
	return json.Marshal(configJSON(cc))
}

// UnmarshalJSON deserializes into the configuration, preserving any
// fields absent from the input (so LoadConfig can layer a partial file
// over scheme defaults).
func (c *Config) UnmarshalJSON(b []byte) error {
	cc := configJSON(*c)
	if err := json.Unmarshal(b, &cc); err != nil {
		return err
	}
	*c = Config(cc)
	return nil
}

// LoadConfig reads a configuration JSON written by `shogun -dumpconfig`
// (or by hand), layered on top of the scheme's defaults: absent fields keep
// their default values only if present in the file's scheme defaults —
// practically, start from `shogun -dumpconfig`, edit, reload.
func LoadConfig(path string) (Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	// Determine the scheme first so defaults come from the right base.
	var probe struct {
		Scheme Scheme `json:"Scheme"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return Config{}, fmt.Errorf("accel: %s: %w", path, err)
	}
	if probe.Scheme == "" {
		probe.Scheme = SchemeShogun
	}
	cfg := DefaultConfig(probe.Scheme)
	if err := json.Unmarshal(b, &cfg); err != nil {
		return Config{}, fmt.Errorf("accel: %s: %w", path, err)
	}
	return cfg, nil
}
