// Package jsonfmt holds the appenders the hand-written JSON exporters
// (trace's Perfetto writer, metrics' registry JSON) share. Each reproduces
// one of encoding/json's formatting rules exactly, so a writer built from
// them gives the bytes json.Encoder gives the equivalent struct. The package
// imports only the standard library, so every layer can use it.
package jsonfmt

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json formats a float64: shortest 'f'
// notation, switching to 'e' below 1e-6 and at or above 1e21, with a
// one-digit negative exponent written without its leading zero.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendString appends s as a quoted JSON string, escaped as AppendChars
// escapes it.
func AppendString(b []byte, s string) []byte {
	return append(AppendChars(append(b, '"'), s), '"')
}

// AppendChars appends s escaped as encoding/json escapes string contents
// (with HTML escaping on, its default): quote, backslash and control bytes,
// '<', '>' and '&', U+2028 and U+2029, and each byte of invalid UTF-8 as
// U+FFFD. The surrounding quotes are the caller's.
func AppendChars(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// Emit writes the document fill appends to the slice it is given, in one
// write. size is an estimate of its length: a longer document still comes
// out whole, at the cost of a regrowth. A growable destination
// (*bytes.Buffer) reserves room for a document of at least reserveMin
// bytes, which is appended straight into its free space. A smaller one,
// like any document for another writer, is appended to a scratch slice of
// that size first, so a buffer that is kept (a cached result) is not left
// holding the estimate's slack.
func Emit(w io.Writer, size int, fill func([]byte) []byte) error {
	if g, ok := w.(interface {
		Grow(int)
		AvailableBuffer() []byte
	}); ok && size >= reserveMin {
		g.Grow(size)
		_, err := w.Write(fill(g.AvailableBuffer()))
		return err
	}
	_, err := w.Write(fill(make([]byte, 0, size)))
	return err
}

// reserveMin is the smallest document Emit reserves room for in a
// growable destination.
const reserveMin = 64 << 10
