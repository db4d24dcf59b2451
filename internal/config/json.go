package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dare/internal/stats"
)

// DistSpec is a JSON-serializable description of a sampling distribution,
// so custom cluster profiles can be loaded from files without code
// changes. Supported types and their fields:
//
//	{"type":"constant", "value":117.7}
//	{"type":"uniform", "lo":60, "hi":200}
//	{"type":"exponential", "mean":0.5}
//	{"type":"normal", "mean":157.8, "sd":8.02, "min":145.3, "max":167.0}
//	{"type":"lognormal", "mean":141.5, "sd":74.2}          // moment-fitted
//	{"type":"pareto", "scale":1, "alpha":2}
//	{"type":"boundedpareto", "lo":1, "hi":96, "alpha":1.1}
//
// Any spec may add "clampLo"/"clampHi" to clip samples to a range.
type DistSpec struct {
	Type    string  `json:"type"`
	Value   float64 `json:"value,omitempty"`
	Lo      float64 `json:"lo,omitempty"`
	Hi      float64 `json:"hi,omitempty"`
	Mean    float64 `json:"mean,omitempty"`
	SD      float64 `json:"sd,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
	ClampLo float64 `json:"clampLo,omitempty"`
	ClampHi float64 `json:"clampHi,omitempty"`
}

// Build constructs the distribution the spec describes.
func (d DistSpec) Build() (stats.Dist, error) {
	var dist stats.Dist
	switch d.Type {
	case "constant":
		dist = stats.Constant{V: d.Value}
	case "uniform":
		if d.Hi <= d.Lo {
			return nil, fmt.Errorf("config: uniform needs hi > lo, got [%v,%v)", d.Lo, d.Hi)
		}
		dist = stats.Uniform{Lo: d.Lo, Hi: d.Hi}
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("config: exponential needs mean > 0, got %v", d.Mean)
		}
		dist = stats.Exponential{Lambda: 1 / d.Mean}
	case "normal":
		if d.SD < 0 {
			return nil, fmt.Errorf("config: normal needs sd >= 0, got %v", d.SD)
		}
		dist = stats.Normal{Mu: d.Mean, Sigma: d.SD, Min: d.Min, Max: d.Max}
	case "lognormal":
		if d.Mean <= 0 || d.SD <= 0 {
			return nil, fmt.Errorf("config: lognormal needs mean, sd > 0, got %v/%v", d.Mean, d.SD)
		}
		dist = stats.LogNormalFromMoments(d.Mean, d.SD)
	case "pareto":
		if d.Scale <= 0 || d.Alpha <= 0 {
			return nil, fmt.Errorf("config: pareto needs scale, alpha > 0")
		}
		dist = stats.Pareto{Xm: d.Scale, Alpha: d.Alpha}
	case "boundedpareto":
		if d.Lo <= 0 || d.Hi <= d.Lo || d.Alpha <= 0 {
			return nil, fmt.Errorf("config: boundedpareto needs 0 < lo < hi and alpha > 0")
		}
		dist = stats.BoundedPareto{L: d.Lo, H: d.Hi, Alpha: d.Alpha}
	case "":
		return nil, fmt.Errorf("config: distribution spec missing \"type\"")
	default:
		return nil, fmt.Errorf("config: unknown distribution type %q", d.Type)
	}
	if d.ClampHi > d.ClampLo {
		dist = stats.Clamped{D: dist, Lo: d.ClampLo, Hi: d.ClampHi}
	}
	return dist, nil
}

// profileFields is Profile without its methods: embedded in ProfileSpec
// it lends its fields to the JSON decoder but not Profile's checkpoint
// codec (profilejson.go).
type profileFields Profile

// ProfileSpec is Profile with JSON-friendly distribution specs, so
// experiments on clusters the paper never measured (different disks,
// fabrics, scales) need only a config file. Keys are Profile's field
// names, matched case-insensitively ("slaves" or "Slaves"). Kind and the
// three performance models shadow their Profile fields: Kind is
// "dedicated" (the default) or "virtual", and each model is a DistSpec.
type ProfileSpec struct {
	profileFields
	Kind               string
	DiskBW, NetBW, RTT DistSpec
}

// Build constructs and validates a Profile from the spec, filling the
// blanks with sane defaults (heartbeat 0.25 s, overhead 0.3 s, hop factor
// 1.0).
func (s ProfileSpec) Build() (*Profile, error) {
	p := Profile(s.profileFields)
	switch s.Kind {
	case "dedicated", "":
		p.Kind = Dedicated
	case "virtual":
		p.Kind = Virtual
	default:
		return nil, fmt.Errorf("config: unknown cluster kind %q (want dedicated|virtual)", s.Kind)
	}
	var err error
	if p.DiskBW, err = s.DiskBW.Build(); err != nil {
		return nil, fmt.Errorf("config: diskBW: %w", err)
	}
	if p.NetBW, err = s.NetBW.Build(); err != nil {
		return nil, fmt.Errorf("config: netBW: %w", err)
	}
	if p.RTT, err = s.RTT.Build(); err != nil {
		return nil, fmt.Errorf("config: rtt: %w", err)
	}
	if p.HeartbeatInterval == 0 {
		p.HeartbeatInterval = 0.25
	}
	if p.TaskOverhead == 0 {
		p.TaskOverhead = 0.3
	}
	if p.HopBWFactor == 0 {
		p.HopBWFactor = 1.0
	}
	if p.ReduceSlotsPerNode == 0 {
		p.ReduceSlotsPerNode = 1
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadProfile decodes a JSON ProfileSpec and builds the Profile. Unknown
// fields and trailing data are rejected to catch typos in hand-written
// configs.
func LoadProfile(r io.Reader) (*Profile, error) {
	var spec ProfileSpec
	if err := DecodeStrict(r, &spec); err != nil {
		return nil, fmt.Errorf("config: parsing profile: %w", err)
	}
	return spec.Build()
}

// DecodeStrict decodes exactly one JSON value from r into v. A key v does
// not declare is an error naming the key, and so is anything but white
// space after the value: a file holding two objects, or one and some
// garbage, must not load as its first object.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
