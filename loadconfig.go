package wgtt

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// DeployOptions is the deployment-shaping option surface shared by every
// wgtt binary (wgtt-sim, wgtt-serve): everything two processes must
// agree on to construct the identical Network. Binaries register it
// with LoadConfig so their flag names, defaults, and config-file keys
// cannot drift; binary-specific knobs (workloads, output formats,
// process topology) stay in each main.
//
// String-typed fields keep their flag syntax so the JSON config file
// and the command line parse through the same code.
type DeployOptions struct {
	Scheme               string `json:"scheme"`
	Seed                 int64  `json:"seed"`
	Segments             string `json:"segments"`
	Channel              string `json:"channel"`
	ParallelSegments     bool   `json:"parallel-segments"`
	BoundaryInterference bool   `json:"boundary-interference"`
	Federation           bool   `json:"federation"`
	RingTrunk            bool   `json:"ring-trunk"`
	TrunkFaults          string `json:"trunk-faults"`
	FlightRecorder       int    `json:"flight-recorder"`
	HandoffBand          string `json:"handoff-band"`
	UnownedSpike         int    `json:"unowned-spike"`
}

// DefaultDeployOptions mirrors DefaultConfig at the flag surface.
func DefaultDeployOptions() DeployOptions {
	return DeployOptions{Scheme: "wgtt", Seed: 1}
}

// RegisterFlags binds the shared option set onto fs. LoadConfig calls
// it; it is exported for binaries that need the registration without
// the config-file layer.
func RegisterFlags(fs *flag.FlagSet, o *DeployOptions) {
	fs.StringVar(&o.Scheme, "scheme", o.Scheme, "wgtt | 11r | stock11r")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "simulation seed")
	fs.StringVar(&o.Segments, "segments", o.Segments,
		"multi-segment roadway, e.g. 8x7.5,4x15 (NUMxSPACING per segment)")
	fs.StringVar(&o.Channel, "channel", o.Channel,
		"channel-model backend: wifi5g (default) | mmwave60g")
	fs.BoolVar(&o.ParallelSegments, "parallel-segments", o.ParallelSegments,
		"run each road segment as its own event-loop domain, synchronized at the trunks (multi-segment WGTT, udp/tcp/conference workloads)")
	fs.BoolVar(&o.BoundaryInterference, "boundary-interference", o.BoundaryInterference,
		"exchange boundary-zone co-channel interference between adjacent segment domains (needs -parallel-segments and >= 2 segments)")
	fs.BoolVar(&o.Federation, "federation", o.Federation,
		"enable the cross-segment federation layer (ownership directory, multi-hop routing, re-locate protocol)")
	fs.BoolVar(&o.RingTrunk, "ring-trunk", o.RingTrunk,
		"close the trunk chain into a ring (implies -federation; needs >= 3 segments)")
	fs.StringVar(&o.TrunkFaults, "trunk-faults", o.TrunkFaults,
		"trunk fault schedule, e.g. drop=0.01,jitter=50us,outage=1-2@2s-3s,outage=all@5s-5.1s")
	fs.IntVar(&o.FlightRecorder, "flight-recorder", o.FlightRecorder,
		"causal flight recorder: retain the last N structured switch-protocol records per segment")
	fs.StringVar(&o.HandoffBand, "handoff-band", o.HandoffBand,
		"expected handoff latency band in ms, e.g. 17,21; completed handoffs outside it note an anomaly")
	fs.IntVar(&o.UnownedSpike, "unowned-spike", o.UnownedSpike,
		"note an anomaly when a controller tracks more than N unowned clients (0 disables)")
}

// LoadConfig parses args with the shared flag surface plus -config and
// resolves a Config with flags > config file > defaults precedence:
// the config file (when -config is given) is decoded over the parsed
// options, then args are parsed again so every flag set explicitly on
// the command line wins over the file. Binary-specific flags must be
// registered on fs before the call; they are parsed alongside, twice
// when -config is given (so a flag.Value's Set must yield the same value
// when called again with the same text), and cannot be set from the
// file.
//
// The returned Config is resolved but not validated — binaries apply
// their own mutations (workload telemetry, serve's domain mode) and
// then call Config.Validate themselves.
func LoadConfig(fs *flag.FlagSet, args []string) (Config, DeployOptions, error) {
	o := DefaultDeployOptions()
	configPath := fs.String("config", "", "JSON options file; explicit flags override its values")
	RegisterFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		return Config{}, o, err
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return Config{}, o, err
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		err = dec.Decode(&o)
		f.Close()
		if err != nil {
			return Config{}, o, fmt.Errorf("config file %s: %w", *configPath, err)
		}
		if err := fs.Parse(args); err != nil {
			return Config{}, o, err
		}
	}
	cfg, err := o.Config()
	return cfg, o, err
}

// Config resolves the option set into a deployment Config.
func (o DeployOptions) Config() (Config, error) {
	scheme, err := ParseScheme(o.Scheme)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig(scheme)
	cfg.Seed = o.Seed
	cfg.FlightRecorder = o.FlightRecorder
	cfg.UnownedSpike = o.UnownedSpike
	if o.HandoffBand != "" {
		lo, hi, err := ParseHandoffBand(o.HandoffBand)
		if err != nil {
			return Config{}, err
		}
		cfg.Controller.HandoffBandLoMs, cfg.Controller.HandoffBandHiMs = lo, hi
	}
	cfg.ChannelBackend = o.Channel
	cfg.BoundaryInterference = o.BoundaryInterference
	if o.Segments != "" {
		specs, err := ParseSegments(o.Segments)
		if err != nil {
			return Config{}, err
		}
		cfg.Segments = specs
	}
	if o.ParallelSegments {
		cfg.Domains = DomainsParallel
	}
	cfg.Federation.Enabled = o.Federation
	if o.RingTrunk {
		cfg.Federation.Enabled = true
		cfg.Federation.Ring = true
	}
	if o.TrunkFaults != "" {
		faults, err := ParseFaultSchedule(o.TrunkFaults)
		if err != nil {
			return Config{}, err
		}
		cfg.Trunk.Faults = faults
	}
	return cfg, nil
}

// OverlayDatapath copies the datapath knobs the shared flag surface set
// in flags (channel backend, flight recorder, anomaly triggers) onto c,
// a config compiled from a scenario. Unset knobs leave the scenario's
// compiled values alone.
func OverlayDatapath(c *Config, flags Config) {
	if flags.ChannelBackend != "" {
		c.ChannelBackend = flags.ChannelBackend
	}
	if flags.FlightRecorder != 0 {
		c.FlightRecorder = flags.FlightRecorder
	}
	if b := flags.Controller; b.HandoffBandHiMs != 0 {
		c.Controller.HandoffBandLoMs, c.Controller.HandoffBandHiMs = b.HandoffBandLoMs, b.HandoffBandHiMs
	}
	if flags.UnownedSpike != 0 {
		c.UnownedSpike = flags.UnownedSpike
	}
}

// ParseHandoffBand parses the -handoff-band syntax: "lo,hi" in
// milliseconds with 0 <= lo < hi (the paper's expectation is 17,21).
func ParseHandoffBand(s string) (lo, hi float64, err error) {
	loS, hiS, found := strings.Cut(s, ",")
	if !found {
		return 0, 0, fmt.Errorf("bad handoff band %q: want lo,hi in ms", s)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(loS), 64); err != nil {
		return 0, 0, fmt.Errorf("bad handoff band %q: %v", s, err)
	}
	if hi, err = strconv.ParseFloat(strings.TrimSpace(hiS), 64); err != nil {
		return 0, 0, fmt.Errorf("bad handoff band %q: %v", s, err)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("bad handoff band %q: want 0 <= lo < hi", s)
	}
	return lo, hi, nil
}

// ParseSegments parses the -segments syntax: comma-separated
// NUMxSPACING entries ("8x7.5,4x15"); a bare NUM inherits the default
// AP spacing.
func ParseSegments(s string) ([]SegmentSpec, error) {
	var specs []SegmentSpec
	for _, part := range strings.Split(s, ",") {
		var spec SegmentSpec
		num, spacing, found := strings.Cut(part, "x")
		n, err := strconv.Atoi(strings.TrimSpace(num))
		if err != nil {
			return nil, fmt.Errorf("bad segment %q: %v", part, err)
		}
		spec.NumAPs = n
		if found {
			sp, err := strconv.ParseFloat(strings.TrimSpace(spacing), 64)
			if err != nil {
				return nil, fmt.Errorf("bad segment %q: %v", part, err)
			}
			spec.APSpacing = sp
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
