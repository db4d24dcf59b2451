package config

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dare/internal/stats"
)

const sampleProfileJSON = `{
  "name": "lab",
  "kind": "dedicated",
  "slaves": 8,
  "mapSlotsPerNode": 2,
  "reduceSlotsPerNode": 1,
  "blockSizeMB": 64,
  "replicationFactor": 2,
  "diskBW": {"type": "normal", "mean": 200, "sd": 10, "min": 150, "max": 250},
  "netBW": {"type": "constant", "value": 100},
  "rtt": {"type": "lognormal", "mean": 0.0002, "sd": 0.0003, "clampLo": 0.00001, "clampHi": 0.01},
  "rackSize": 4,
  "heartbeatInterval": 0.5
}`

func TestLoadProfile(t *testing.T) {
	p, err := LoadProfile(strings.NewReader(sampleProfileJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "lab" || p.Slaves != 8 || p.Kind != Dedicated {
		t.Fatalf("bad profile: %+v", p)
	}
	if p.BlockSizeMB != 64 || p.ReplicationFactor != 2 || p.RackSize != 4 {
		t.Fatal("scalar fields lost")
	}
	if p.HeartbeatInterval != 0.5 {
		t.Fatal("heartbeat not applied")
	}
	g := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := p.DiskBW.Sample(g); v < 150 || v > 250 {
			t.Fatalf("diskBW sample %v escapes bounds", v)
		}
		if v := p.NetBW.Sample(g); v != 100 {
			t.Fatalf("netBW sample %v, want constant 100", v)
		}
		if v := p.RTT.Sample(g); v < 0.00001 || v > 0.01 {
			t.Fatalf("rtt sample %v escapes clamp", v)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadProfileDefaults(t *testing.T) {
	minimal := `{
	  "name": "tiny", "slaves": 2, "mapSlotsPerNode": 1,
	  "blockSizeMB": 128, "replicationFactor": 1,
	  "diskBW": {"type":"constant","value":100},
	  "netBW": {"type":"constant","value":100},
	  "rtt": {"type":"constant","value":0.0001}
	}`
	p, err := LoadProfile(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if p.HeartbeatInterval != 0.25 || p.TaskOverhead != 0.3 || p.HopBWFactor != 1.0 || p.ReduceSlotsPerNode != 1 {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestLoadProfileRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(sampleProfileJSON, `"name"`, `"naem"`, 1)
	if _, err := LoadProfile(strings.NewReader(bad)); err == nil {
		t.Fatal("typo field accepted")
	}
}

// TestLoadProfileGoCaseKeys: keys match Profile's field names
// case-insensitively, so a spec spelled in Go case loads too.
func TestLoadProfileGoCaseKeys(t *testing.T) {
	goCase := `{
	  "Name": "lab", "Kind": "virtual", "Slaves": 8, "MapSlotsPerNode": 2,
	  "BlockSizeMB": 64, "ReplicationFactor": 2, "Racks": 2, "Pods": 1,
	  "DiskBW": {"type":"constant","value":200},
	  "NetBW": {"type":"constant","value":100},
	  "RTT": {"type":"constant","value":0.0001}
	}`
	p, err := LoadProfile(strings.NewReader(goCase))
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(1)
	if p.Name != "lab" || p.Kind != Virtual || p.Slaves != 8 || p.Racks != 2 || p.DiskBW.Sample(g) != 200 || p.RTT.Sample(g) != 0.0001 {
		t.Fatalf("Go-case keys lost: %+v", p)
	}
}

// TestStrictDecodeRejectsTrailingData: a profile or policy file holding
// a second object, or one object and garbage, does not load as its first
// object; trailing white space is fine.
func TestStrictDecodeRejectsTrailingData(t *testing.T) {
	loadProfile := func(s string) error { _, err := LoadProfile(strings.NewReader(s)); return err }
	readPolicy := func(s string) error { _, err := ReadPolicy(strings.NewReader(s)); return err }
	for _, c := range []struct {
		name    string
		load    func(string) error
		src     string
		trailer bool
	}{
		{"policy, second object", readPolicy, `{"kind":"lru"}{"kind":"scarlett"}`, true},
		{"policy, garbage", readPolicy, `{"kind":"lru"} garbage`, true},
		{"policy, white space", readPolicy, "{\"kind\":\"lru\"}\n\t \n", false},
		{"profile, second object", loadProfile, sampleProfileJSON + `{"slaves":99}`, true},
		{"profile, white space", loadProfile, sampleProfileJSON + "\n", false},
	} {
		switch err := c.load(c.src); {
		case c.trailer && (err == nil || !strings.Contains(err.Error(), "trailing data after the JSON value")):
			t.Errorf("%s: err = %v, want the trailing-data error", c.name, err)
		case !c.trailer && err != nil:
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestLoadProfileRejectsBadKind(t *testing.T) {
	bad := strings.Replace(sampleProfileJSON, `"dedicated"`, `"mainframe"`, 1)
	if _, err := LoadProfile(strings.NewReader(bad)); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestLoadProfileValidates(t *testing.T) {
	bad := strings.Replace(sampleProfileJSON, `"slaves": 8`, `"slaves": 0`, 1)
	if _, err := LoadProfile(strings.NewReader(bad)); err == nil {
		t.Fatal("zero slaves accepted")
	}
}

func TestDistSpecBuild(t *testing.T) {
	g := stats.NewRNG(2)
	cases := []struct {
		spec DistSpec
		ok   bool
	}{
		{DistSpec{Type: "constant", Value: 5}, true},
		{DistSpec{Type: "uniform", Lo: 1, Hi: 2}, true},
		{DistSpec{Type: "uniform", Lo: 2, Hi: 1}, false},
		{DistSpec{Type: "exponential", Mean: 3}, true},
		{DistSpec{Type: "exponential", Mean: 0}, false},
		{DistSpec{Type: "normal", Mean: 1, SD: 0.1}, true},
		{DistSpec{Type: "normal", Mean: 1, SD: -1}, false},
		{DistSpec{Type: "lognormal", Mean: 10, SD: 5}, true},
		{DistSpec{Type: "lognormal", Mean: 0, SD: 5}, false},
		{DistSpec{Type: "pareto", Scale: 1, Alpha: 2}, true},
		{DistSpec{Type: "pareto"}, false},
		{DistSpec{Type: "boundedpareto", Lo: 1, Hi: 10, Alpha: 1.1}, true},
		{DistSpec{Type: "boundedpareto", Lo: 10, Hi: 1, Alpha: 1.1}, false},
		{DistSpec{Type: "unobtainium"}, false},
		{DistSpec{}, false},
	}
	for i, c := range cases {
		d, err := c.spec.Build()
		if c.ok && err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
			continue
		}
		if !c.ok && err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		if c.ok {
			for j := 0; j < 100; j++ {
				if v := d.Sample(g); math.IsNaN(v) {
					t.Errorf("case %d: NaN sample", i)
					break
				}
			}
		}
	}
}

func TestDistSpecClamp(t *testing.T) {
	d, err := DistSpec{Type: "exponential", Mean: 100, ClampLo: 1, ClampHi: 5}.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := stats.NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := d.Sample(g)
		if v < 1 || v > 5 {
			t.Fatalf("clamp escaped: %v", v)
		}
	}
}

func TestProfileSpecBuildCustomSimulates(t *testing.T) {
	// A custom profile must drive a validated Profile end-to-end.
	p, err := LoadProfile(strings.NewReader(sampleProfileJSON))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.BlockSizeBytes() != 64*MB {
		t.Fatal("block size wrong")
	}
}

// FuzzLoadProfile hammers the -profile-file path: any file yields a typed
// error or a profile that validates and round-trips exactly through the
// checkpoint codec (Profile.MarshalJSON/UnmarshalJSON), so a resumed run
// rebuilds the very cluster the file described.
func FuzzLoadProfile(f *testing.F) {
	f.Add([]byte(sampleProfileJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"slaves": 8, "diskBW": {"type": "constant", "value": 100}}`))
	f.Add([]byte(`{"name": "v", "kind": "virtual", "slaves": 40, "mapSlotsPerNode": 2, "blockSizeMB": 128,
  "replicationFactor": 3, "rackSize": 10,
  "diskBW": {"type": "boundedpareto", "lo": 20, "hi": 300, "alpha": 1.1, "clampLo": 25, "clampHi": 250},
  "netBW": {"type": "uniform", "lo": 60, "hi": 200},
  "rtt": {"type": "pareto", "scale": 0.0001, "alpha": 2}}`))
	f.Add([]byte(`{"slaves": 4, "diskBW": {"type": "exponential", "mean": 50}, "netBW": {"type": "lognormal", "mean": 100, "sd": 30}, "rtt": {"type": "constant"}} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("loaded profile does not validate: %v", err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("loaded profile does not encode: %v", err)
		}
		var back Profile
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		if !reflect.DeepEqual(back, *p) {
			t.Fatalf("checkpoint form does not round-trip:\nloaded  %+v\ndecoded %+v", *p, back)
		}
	})
}
