package trace

import (
	"iter"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// count returns the number of values seq yields.
func count[V any](seq iter.Seq[V]) int {
	n := 0
	for range seq {
		n++
	}
	return n
}

// TestStoredRecordsHoldNoPointers keeps every stored record type free of
// pointers, strings, slices and maps, so the chunks holding them are never
// scanned by the garbage collector. A field of such a kind makes the test
// fail with its path.
func TestStoredRecordsHoldNoPointers(t *testing.T) {
	r := NewRecorder(nil)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(r.changes.chunks).Elem().Elem(),
		reflect.TypeOf(r.overheads.chunks).Elem().Elem(),
		reflect.TypeOf(r.accesses.chunks).Elem().Elem(),
		reflect.TypeOf(r.depths.chunks).Elem().Elem(),
		reflect.TypeOf(r.faults.chunks).Elem().Elem(),
		reflect.TypeOf(r.migrations.chunks).Elem().Elem(),
	} {
		var walk func(path string, typ reflect.Type)
		walk = func(path string, typ reflect.Type) {
			switch typ.Kind() {
			case reflect.Struct:
				for i := range typ.NumField() {
					f := typ.Field(i)
					walk(path+"."+f.Name, f.Type)
				}
			case reflect.Array:
				walk(path+"[]", typ.Elem())
			case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
				reflect.Chan, reflect.Func, reflect.Interface:
				t.Errorf("%s is a %s: stored records must hold no pointers", path, typ.Kind())
			}
		}
		walk(typ.Name(), typ)
	}
	if got := unsafe.Sizeof(stateRec{}); got != 24 {
		t.Errorf("stateRec is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(overheadRec{}); got != 32 {
		t.Errorf("overheadRec is %d bytes, want 32", got)
	}
}

// TestStreamNeverCopiesRecords appends 100k state changes and overheads:
// the first record keeps its address, every record reads back by index,
// and the bytes allocated stay within twice the records' own size.
func TestStreamNeverCopiesRecords(t *testing.T) {
	const n = 100_000
	var now sim.Time
	r := NewRecorder(func() sim.Time { return now })
	task, cpu := r.Intern("t"), r.Intern("cpu")
	r.RecordState(task, cpu, 0, StateReady)
	r.RecordOverhead(cpu, task, 0, OverheadScheduling, 0, 0)
	first, firstOv := r.changes.at(0), r.overheads.at(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		now = sim.Time(i)
		r.RecordState(task, cpu, i%4, TaskState(i%7))
		r.RecordOverhead(cpu, task, i%4, OverheadKind(i%3), now, now+1)
	}
	runtime.ReadMemStats(&after)
	if r.changes.at(0) != first || r.overheads.at(0) != firstOv {
		t.Fatal("appending moved record 0")
	}
	for i := range n {
		if c := r.changes.at(i); c.at != sim.Time(i) {
			t.Fatalf("state change %d reads at=%v", i, c.at)
		}
	}
	if got := r.changes.len(); got != n {
		t.Fatalf("len = %d, want %d", got, n)
	}
	limit := 2 * n * (unsafe.Sizeof(stateRec{}) + unsafe.Sizeof(overheadRec{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit) {
		t.Errorf("appending %d records of each stream allocated %d bytes, want at most %d", n, got, limit)
	}
}
