package jsonfmt

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendStringMatchesEncodingJSON checks the escaping against
// encoding/json's on strings that exercise each of its rules.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote"d`, `back\slash`, "<tag>&amp;", "tab\tnew\nline\r", "\b\f\x00\x01\x1f\x7f",
		"héllo ✓ 日本", "line\u2028sep\u2029para", "bad\xffutf8\xc3", "\xed\xa0\x80surrogate", "\xe2\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON checks the float formatting against
// encoding/json's across magnitudes, on both sides of its 'e' thresholds.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125, -2.5e-9, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i < 10_000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json gives %s", f, got, want)
		}
	}
}

// TestEmit covers each destination: a growable buffer reserves room for a
// large document and takes a small one in one exact write, after what it
// already holds; any other writer gets one write of the whole document.
func TestEmit(t *testing.T) {
	for _, n := range []int{10, reserveMin, 3 * reserveMin} {
		doc := bytes.Repeat([]byte("0123456789"), n/10)
		fill := func(b []byte) []byte { return append(b, doc...) }
		buf := bytes.NewBufferString("head:")
		if err := Emit(buf, n/2, fill); err != nil || buf.String() != "head:"+string(doc) {
			t.Errorf("%d bytes: buffer holds %d bytes, error %v", n, buf.Len(), err)
		}
		buf = new(bytes.Buffer)
		if err := Emit(buf, n+n/4, fill); err != nil || !bytes.Equal(buf.Bytes(), doc) {
			t.Errorf("%d bytes: buffer holds %d bytes, error %v", n, buf.Len(), err)
		}
		if reserved := buf.Cap() >= max(n+n/4, reserveMin); reserved != (n+n/4 >= reserveMin) {
			t.Errorf("%d-byte document, %d-byte estimate: buffer capacity %d", n, n+n/4, buf.Cap())
		}
		w := &writes{}
		if err := Emit(w, n, fill); err != nil || len(w.calls) != 1 || w.calls[0] != string(doc) {
			t.Errorf("%d bytes: %d writes, error %v; want one write of the document", n, len(w.calls), err)
		}
	}
}

type writes struct{ calls []string }

func (w *writes) Write(p []byte) (int, error) {
	w.calls = append(w.calls, string(p))
	return len(p), nil
}
