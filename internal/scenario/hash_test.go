package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hashOf parses src and returns its canonical hash, failing the test on any
// error.
func hashOf(t *testing.T, src string) string {
	t.Helper()
	h, err := HashBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// hashBase is a small but representative description: durations in mixed
// units, a map-valued field (traces), faults, and an explore block, so the
// invariance tests exercise every canonicalization path.
const hashBase = `{
	"name": "hashtest",
	"horizon": "1ms",
	"processors": [
		{"name": "cpu", "policy": "rr", "quantum": "50us",
		 "overheads": {"scheduling": "2us", "contextSave": "1us", "contextLoad": "1us"}}
	],
	"events": [{"name": "go", "policy": "boolean"}],
	"traces": {"dec": ["10us", "20us"], "aux": ["5us"]},
	"tasks": [
		{"name": "a", "processor": "cpu", "priority": 2, "period": "100us", "deadline": "100us",
		 "body": [{"op": "execute_trace", "trace": "dec"}]},
		{"name": "b", "processor": "cpu", "priority": 1,
		 "body": [{"op": "wait", "event": "go"}, {"op": "execute", "for": "30us"}]}
	],
	"hardware": [{"name": "hw", "loop": true,
		"body": [{"op": "delay", "for": "200us"}, {"op": "signal", "event": "go"}]}],
	"faults": [{"kind": "wcet_overrun", "task": "a", "factor": 2, "probability": 0.5, "seed": 7}],
	"explore": {"maxRuns": 8, "jitter": {"a": "10us"}}
}`

func TestHashWhitespaceAndFieldOrderInvariance(t *testing.T) {
	want := hashOf(t, hashBase)

	// Compact whitespace: decode into any and re-encode (field order of Go
	// maps is sorted by encoding/json, so this also scrambles member order
	// relative to the source text).
	var v any
	if err := json.Unmarshal([]byte(hashBase), &v); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(t, string(compact)); got != want {
		t.Errorf("reformatted scenario hashes %s, want %s", got, want)
	}

	// Hand-reordered top-level and nested members.
	reordered := strings.Replace(hashBase,
		`"name": "hashtest",
	"horizon": "1ms",`,
		`"horizon": "1ms",
	"name": "hashtest",`, 1)
	reordered = strings.Replace(reordered,
		`{"name": "a", "processor": "cpu", "priority": 2, "period": "100us", "deadline": "100us",`,
		`{"period": "100us", "name": "a", "deadline": "100us", "processor": "cpu", "priority": 2,`, 1)
	if reordered == hashBase {
		t.Fatal("reordering rewrite had no effect")
	}
	if got := hashOf(t, reordered); got != want {
		t.Errorf("field-reordered scenario hashes %s, want %s", got, want)
	}
}

func TestHashDurationSpellingInvariance(t *testing.T) {
	want := hashOf(t, hashBase)
	// 1ms == 1000us == 1000000000 ps (a plain number is picoseconds).
	for _, alt := range []string{`"1000us"`, `1000000000`} {
		src := strings.Replace(hashBase, `"1ms"`, alt, 1)
		if got := hashOf(t, src); got != want {
			t.Errorf("horizon spelled %s hashes %s, want %s", alt, got, want)
		}
	}
}

func TestHashOmittedDefaultInvariance(t *testing.T) {
	// An explicitly spelled default value parses to the same struct as an
	// absent field, so it must hash identically: speed 0 means 1.0 but is
	// the zero value, repeat 0/1 distinction is semantic so use the real
	// defaults here.
	want := hashOf(t, hashBase)
	src := strings.Replace(hashBase, `{"name": "cpu", "policy": "rr",`,
		`{"name": "cpu", "speed": 0, "cores": 0, "engine": "", "policy": "rr",`, 1)
	if got := hashOf(t, src); got != want {
		t.Errorf("explicit zero defaults hash %s, want %s", got, want)
	}
}

func TestHashChangesOnSemanticFields(t *testing.T) {
	want := hashOf(t, hashBase)
	edits := map[string][2]string{
		"name":        {`"hashtest"`, `"renamed"`},
		"horizon":     {`"1ms"`, `"2ms"`},
		"policy":      {`"policy": "rr", "quantum": "50us"`, `"policy": "rr", "quantum": "60us"`},
		"priority":    {`"priority": 2`, `"priority": 4`},
		"period":      {`"period": "100us"`, `"period": "150us"`},
		"op duration": {`{"op": "execute", "for": "30us"}`, `{"op": "execute", "for": "31us"}`},
		"trace entry": {`["10us", "20us"]`, `["10us", "21us"]`},
		"fault seed":  {`"seed": 7`, `"seed": 8`},
		"explore":     {`"maxRuns": 8`, `"maxRuns": 9`},
		"overhead":    {`"scheduling": "2us"`, `"scheduling": "3us"`},
	}
	for what, e := range edits {
		src := strings.Replace(hashBase, e[0], e[1], 1)
		if src == hashBase {
			t.Fatalf("%s: edit had no effect", what)
		}
		if got := hashOf(t, src); got == want {
			t.Errorf("changing %s did not change the hash", what)
		}
	}
}

func TestHashCanonicalJSONRoundTrip(t *testing.T) {
	// The canonical form must itself parse, validate and hash to the same
	// value — that is what makes it a fixed point the cache can key on.
	s, err := Parse([]byte(hashBase))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(t, string(canon)); got != want {
		t.Errorf("canonical form hashes %s, want %s", got, want)
	}
}

// TestHashGoldenFixtures pins the canonical hash of the shipped example
// scenarios. These move only when the System struct itself changes shape (a
// new field extends the canonical form) — which is exactly when cached
// results must be invalidated, so update the fixtures deliberately alongside
// such a change: go test ./internal/scenario/ -run Golden -update-hashes
func TestHashGoldenFixtures(t *testing.T) {
	goldenPath := filepath.Join("testdata", "scenario_hashes.golden")
	var b strings.Builder
	for _, name := range []string{"figure6", "periodic_rm", "soc_bus", "smp"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(h + "  " + name + "\n")
	}
	if *updateHashes {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != b.String() {
		t.Errorf("scenario hashes drifted from %s:\ngot:\n%swant:\n%s"+
			"(regenerate with -update-hashes when the System struct gained fields)",
			goldenPath, b.String(), want)
	}
}

var updateHashes = flag.Bool("update-hashes", false, "rewrite the scenario hash golden fixtures")
