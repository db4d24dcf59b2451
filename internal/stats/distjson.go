package stats

import (
	"encoding/json"
	"fmt"
)

// DistJSON wraps a Dist for exact JSON round-tripping as a typed union:
// {"kind": "uniform", "lo": 1, "hi": 2}. Every concrete Dist in this
// package is covered; parameters are carried verbatim (Go's float64 JSON
// encoding is shortest-round-trip, so decoding restores the identical bit
// pattern). The checkpoint spec (internal/runner) leans on exactness: a
// resumed run rebuilt from a spec must draw the same variates, so
// distributions are never re-fit from moments — they are transcribed.
type DistJSON struct{ Dist }

// distNode is the wire form: a kind tag plus the union of all parameter
// fields. omitempty would corrupt legitimate zero parameters (e.g.
// Uniform{Lo: 0}), so each kind writes its own explicit object instead.
type distNode struct {
	Kind string `json:"kind"`

	V      *float64 `json:"v,omitempty"`
	Lo     *float64 `json:"lo,omitempty"`
	Hi     *float64 `json:"hi,omitempty"`
	Lambda *float64 `json:"lambda,omitempty"`
	Mu     *float64 `json:"mu,omitempty"`
	Sigma  *float64 `json:"sigma,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Xm     *float64 `json:"xm,omitempty"`
	Alpha  *float64 `json:"alpha,omitempty"`
	L      *float64 `json:"l,omitempty"`
	H      *float64 `json:"h,omitempty"`

	Weights    []float64  `json:"weights,omitempty"`
	Components []DistJSON `json:"components,omitempty"`
	D          *DistJSON  `json:"d,omitempty"`
}

func fp(v float64) *float64 { return &v }

func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}

// MarshalJSON implements json.Marshaler.
func (d DistJSON) MarshalJSON() ([]byte, error) {
	if d.Dist == nil {
		return []byte("null"), nil
	}
	var n distNode
	switch v := d.Dist.(type) {
	case Constant:
		n = distNode{Kind: "constant", V: fp(v.V)}
	case Uniform:
		n = distNode{Kind: "uniform", Lo: fp(v.Lo), Hi: fp(v.Hi)}
	case Exponential:
		n = distNode{Kind: "exponential", Lambda: fp(v.Lambda)}
	case Normal:
		n = distNode{Kind: "normal", Mu: fp(v.Mu), Sigma: fp(v.Sigma), Min: fp(v.Min), Max: fp(v.Max)}
	case LogNormal:
		n = distNode{Kind: "lognormal", Mu: fp(v.Mu), Sigma: fp(v.Sigma)}
	case Pareto:
		n = distNode{Kind: "pareto", Xm: fp(v.Xm), Alpha: fp(v.Alpha)}
	case BoundedPareto:
		n = distNode{Kind: "boundedpareto", L: fp(v.L), H: fp(v.H), Alpha: fp(v.Alpha)}
	case Mixture:
		n = distNode{Kind: "mixture", Weights: v.Weights}
		for _, c := range v.Components {
			n.Components = append(n.Components, DistJSON{c})
		}
	case Clamped:
		inner := DistJSON{v.D}
		n = distNode{Kind: "clamped", D: &inner, Lo: fp(v.Lo), Hi: fp(v.Hi)}
	default:
		return nil, fmt.Errorf("stats: distribution %T has no JSON form", d.Dist)
	}
	return json.Marshal(n)
}

// maxDistNesting bounds the JSON nesting of one distribution. Every
// nested distribution is decoded by its own json.Unmarshal call, which
// rescans its bytes, so decoding cost grows with the square of the
// nesting; real models nest two or three levels.
const maxDistNesting = 64

// nesting returns the deepest object/array nesting in the JSON text b.
func nesting(b []byte) int {
	depth, deepest := 0, 0
	inString, escaped := false, false
	for _, c := range b {
		switch {
		case escaped:
			escaped = false
		case inString:
			escaped = c == '\\'
			inString = c != '"'
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
			deepest = max(deepest, depth)
		case c == '}' || c == ']':
			depth--
		}
	}
	return deepest
}

// UnmarshalJSON implements json.Unmarshaler. It rejects distributions
// that could not be sampled (a mixture whose weights and components
// disagree, a clamp without an inner distribution) and nesting deeper
// than maxDistNesting.
func (d *DistJSON) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		d.Dist = nil
		return nil
	}
	if nesting(b) > maxDistNesting {
		return fmt.Errorf("stats: distribution nested deeper than %d levels", maxDistNesting)
	}
	var n distNode
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	switch n.Kind {
	case "constant":
		d.Dist = Constant{V: deref(n.V)}
	case "uniform":
		d.Dist = Uniform{Lo: deref(n.Lo), Hi: deref(n.Hi)}
	case "exponential":
		d.Dist = Exponential{Lambda: deref(n.Lambda)}
	case "normal":
		d.Dist = Normal{Mu: deref(n.Mu), Sigma: deref(n.Sigma), Min: deref(n.Min), Max: deref(n.Max)}
	case "lognormal":
		d.Dist = LogNormal{Mu: deref(n.Mu), Sigma: deref(n.Sigma)}
	case "pareto":
		d.Dist = Pareto{Xm: deref(n.Xm), Alpha: deref(n.Alpha)}
	case "boundedpareto":
		d.Dist = BoundedPareto{L: deref(n.L), H: deref(n.H), Alpha: deref(n.Alpha)}
	case "mixture":
		if len(n.Components) == 0 || len(n.Weights) != len(n.Components) {
			return fmt.Errorf("stats: mixture has %d weights for %d components", len(n.Weights), len(n.Components))
		}
		m := Mixture{Weights: n.Weights}
		for _, c := range n.Components {
			if c.Dist == nil {
				return fmt.Errorf("stats: mixture has a null component")
			}
			m.Components = append(m.Components, c.Dist)
		}
		d.Dist = m
	case "clamped":
		if n.D == nil || n.D.Dist == nil {
			return fmt.Errorf("stats: clamped distribution has no inner distribution")
		}
		d.Dist = Clamped{D: n.D.Dist, Lo: deref(n.Lo), Hi: deref(n.Hi)}
	default:
		return fmt.Errorf("stats: unknown distribution kind %q", n.Kind)
	}
	return nil
}
