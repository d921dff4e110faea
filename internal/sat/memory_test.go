package sat

import (
	"reflect"
	"testing"
	"unsafe"
)

// memoryScratch lists the Solver's slice fields MemoryBytes leaves out:
// buffers whose size follows one call, not the problem.
var memoryScratch = map[string]bool{
	"analyzeT":    true,
	"minStack":    true,
	"toClear":     true,
	"addBuf":      true,
	"assumptions": true,
	"failed":      true,
	"imports":     true,
}

// TestMemoryBytesCountsEverySlice pins MemoryBytes to the Solver's
// layout: every slice field, in nested structs too, is either counted at
// its capacity times its element size or listed in memoryScratch. An
// array added to the solver fails here until MemoryBytes counts it or
// the list names it.
func TestMemoryBytesCountsEverySlice(t *testing.T) {
	const capacity = 1000
	scratchSeen := 0
	var walk func(typ reflect.Type, index []int, prefix string)
	walk = func(typ reflect.Type, index []int, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), index...), i)
			name := prefix + f.Name
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(f.Type, at, name+".")
			case reflect.Slice:
				s := New()
				if got := s.MemoryBytes(); got != 0 {
					t.Fatalf("MemoryBytes of an empty solver = %d, want 0", got)
				}
				v := reflect.ValueOf(s).Elem().FieldByIndex(at)
				v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
				v.Set(reflect.MakeSlice(v.Type(), 0, capacity))
				want := int64(capacity) * int64(f.Type.Elem().Size())
				if memoryScratch[name] {
					scratchSeen++
					want = 0
				}
				if got := s.MemoryBytes(); got != want {
					t.Errorf("field %s with capacity %d: MemoryBytes = %d, want %d (count it, or list it in memoryScratch)",
						name, capacity, got, want)
				}
			}
		}
	}
	walk(reflect.TypeOf(Solver{}), nil, "")
	if scratchSeen != len(memoryScratch) {
		t.Errorf("memoryScratch names %d fields, %d of them exist", len(memoryScratch), scratchSeen)
	}

	// Nested arrays count too: one variable carves its two watch lists
	// from a fresh block, and the block's uncarved tail is counted.
	s := New()
	s.NewVar()
	if got, block := s.MemoryBytes(), int64(watchBlock)*int64(unsafe.Sizeof(watcher{})); got < block {
		t.Errorf("MemoryBytes after one NewVar = %d, want at least the watch block's %d", got, block)
	}
}
