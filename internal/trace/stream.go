package trace

import "math/bits"

// firstChunk is the record count of a stream's first chunk. Chunk k holds
// firstChunk<<k records, so a stream of n records takes about log2(n/32)+1
// allocations, and a short trace allocates one small chunk per stream.
const firstChunk = 32

// stream is an append-only sequence of trace records. The records live in
// chunks, each double the size of the one before, so growth allocates a
// new chunk and never copies a record; a record's address is fixed once it
// is appended. Record types hold no pointers (names are Name handles), so
// the garbage collector never scans a chunk.
type stream[T any] struct {
	chunks [][]T
	n      int
}

// push appends one record.
func (s *stream[T]) push(v T) {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]T, 0, firstChunk<<len(s.chunks)))
		k++
	}
	s.chunks[k] = append(s.chunks[k], v)
	s.n++
}

// len returns the number of records.
func (s *stream[T]) len() int { return s.n }

// at returns record i (0 <= i < len). Chunk k starts at record
// firstChunk*(2^k-1).
func (s *stream[T]) at(i int) *T {
	k := bits.Len(uint(i/firstChunk+1)) - 1
	return &s.chunks[k][i-firstChunk*(1<<k-1)]
}

// last returns the most recent record, or nil when the stream is empty.
func (s *stream[T]) last() *T {
	if s.n == 0 {
		return nil
	}
	c := s.chunks[len(s.chunks)-1]
	return &c[len(c)-1]
}

// all yields every record with its index, in append order; range over it
// as over a slice: for i, rec := range s.all.
func (s *stream[T]) all(yield func(int, *T) bool) {
	i := 0
	for _, c := range s.chunks {
		for j := range c {
			if !yield(i, &c[j]) {
				return
			}
			i++
		}
	}
}
