package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file gives a parsed description a canonical content hash, so two
// scenario files that describe the same system — regardless of JSON field
// order, whitespace, duration spelling ("1ms" vs 1000000000 picoseconds) or
// omitted-default fields — hash identically. The rtossimd result cache keys
// on it: a re-submitted configuration is served from memory instead of being
// re-simulated, which is only sound because simulations are deterministic
// functions of the canonical form.
//
// Canonicalization is the parse itself: Parse normalizes every
// representation choice (field order is lost, durations become picoseconds,
// absent fields become zero values), so marshalling the parsed struct back
// to JSON — with struct-field order fixed by the type and map keys sorted by
// encoding/json — yields one byte string per semantic description. Every
// field of System feeds either the simulation or its reports, so any
// semantic change moves the hash.

// CanonicalJSON renders the parsed description in canonical form: the
// encoding/json serialization of the System struct. The result re-parses to
// an identical System.
func (s *System) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s)
}

// Hash returns the canonical content hash of the description: the SHA-256 of
// its CanonicalJSON, in lowercase hex.
func (s *System) Hash() (string, error) {
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("scenario: canonicalize: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// HashBytes parses a scenario description and returns its canonical content
// hash. Two byte strings hash equal exactly when they parse to the same
// system.
func HashBytes(data []byte) (string, error) {
	s, err := Parse(data)
	if err != nil {
		return "", err
	}
	return s.Hash()
}
