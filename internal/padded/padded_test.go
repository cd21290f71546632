package padded

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
	"unsafe"
)

// The whole point of the package is the layout; assert it.
func TestLayout(t *testing.T) {
	if s := unsafe.Sizeof(Int32{}); s != CacheLineSize {
		t.Errorf("Int32 size = %d, want %d", s, CacheLineSize)
	}
	if s := unsafe.Sizeof(Uint64{}); s != CacheLineSize {
		t.Errorf("Uint64 size = %d, want %d", s, CacheLineSize)
	}
	// Slice elements must land in distinct cache lines.
	xs := make([]Int32, 4)
	for i := 1; i < len(xs); i++ {
		d := uintptr(unsafe.Pointer(&xs[i])) - uintptr(unsafe.Pointer(&xs[i-1]))
		if d != CacheLineSize {
			t.Errorf("adjacent Int32 elements %d bytes apart, want %d", d, CacheLineSize)
		}
	}
}

func TestOps(t *testing.T) {
	var i Int32
	if i.Add(5) != 5 || i.Load() != 5 {
		t.Error("Int32 Add/Load")
	}
	if !i.CompareAndSwap(5, 7) || i.Load() != 7 {
		t.Error("Int32 CompareAndSwap")
	}
	i.Store(1)
	if i.Load() != 1 {
		t.Error("Int32 Store")
	}
	var u Uint64
	if u.Add(3) != 3 || u.Load() != 3 {
		t.Error("Uint64 Add/Load")
	}
	u.Store(9)
	if u.Load() != 9 {
		t.Error("Uint64 Store")
	}
}

// TestCounterFieldsAreAtomic: every padded type's counter is a
// sync/atomic value. That field is what go vet's copylocks check keys
// on (sync/atomic's types carry a noCopy marker), so it is what makes a
// padded counter copied by value a vet finding; a plain integer there
// would lose the check silently.
func TestCounterFieldsAreAtomic(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "padded.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{Importer: importer.ForCompiler(fset, "source", nil)}).
		Check("repro/internal/padded", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	structs := 0
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		structs++
		counters := 0
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == "_" {
				continue
			}
			counters++
			n, ok := field.Type().(*types.Named)
			if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync/atomic" {
				t.Errorf("%s.%s is %s, want a sync/atomic type", name, field.Name(), field.Type())
			}
		}
		if counters != 1 {
			t.Errorf("%s has %d counter fields, want 1", name, counters)
		}
	}
	if structs == 0 {
		t.Fatal("no padded types found")
	}
}
