package trace

import (
	"bytes"
	"testing"
)

func TestLogCSVRoundTrip(t *testing.T) {
	l := Generate(GenConfig{Files: 50, Accesses: 2000, Seed: 1})
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Horizon != l.Horizon || len(got.Files) != len(l.Files) || len(got.Accesses) != len(l.Accesses) {
		t.Fatal("round trip lost structure")
	}
	for i := range l.Files {
		if got.Files[i] != l.Files[i] {
			t.Fatalf("file %d differs", i)
		}
	}
	for i := range l.Accesses {
		if got.Accesses[i] != l.Accesses[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestLogCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus,1\n",
		"file,1\n",
		"file,x,3\n",
		"file,0,x\n",
		"access,1\n",
		"access,x,0\n",
		"access,0,x\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLogCSVValidates(t *testing.T) {
	// Access referencing a missing file must fail validation.
	in := "#log,100\nfile,0,2\naccess,5,7\n"
	if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
		t.Fatal("dangling access accepted")
	}
}

// nonFiniteLogs each parse cleanly but carry a NaN or infinite time.
var nonFiniteLogs = []string{
	"#log,NaN\n",
	"#log,100\nfile,NaN,1\n",
	"#log,+Inf\nfile,0,1\naccess,1e308,0\n",
	"#log,100\nfile,-Inf,1\naccess,5,0\n",
	"#log,100\nfile,0,1\naccess,NaN,0\n",
}

func TestLogCSVRejectsNonFinite(t *testing.T) {
	for _, in := range nonFiniteLogs {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
}

func FuzzReadTraceCSV(f *testing.F) {
	var valid bytes.Buffer
	if err := Generate(GenConfig{Files: 5, Accesses: 40, Seed: 2}).WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, in := range nonFiniteLogs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("ReadCSV returned a log Validate rejects: %v", err)
		}
	})
}
