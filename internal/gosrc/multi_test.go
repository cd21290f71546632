package gosrc

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// multiSrc has two annotated functions over one shared Map — the
// restrictions-graph and lock order must be computed across both
// sections (§3.2: "computed for all the atomic sections in the
// program").
const multiSrc = `package registry

import "repro/internal/semadt"

//semlock:atomic
//semlock:var members Set
func AddMember(index *semadt.Map, group int, member int) {
	members := index.Get(group)
	if members == nil {
		members = semadt.NewSet(nil)
		index.Put(group, members)
	}
	members.(*semadt.Set).Add(member)
}

//semlock:atomic
//semlock:var members Set
func HasMember(index *semadt.Map, group int, member int) {
	members := index.Get(group)
	found := false
	if members != nil {
		found = members.(*semadt.Set).Contains(member)
	}
	_ = found
}
`

func TestMultiFunctionCompile(t *testing.T) {
	f, err := ParseFile("registry.go", multiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Functions) != 2 {
		t.Fatalf("parsed %d functions, want 2", len(f.Functions))
	}
	res, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	// Map must rank before Set in both sections (Set instances are
	// obtained through the Map).
	if res.Rank("Map") >= res.Rank("Set") {
		t.Errorf("Map rank %d should precede Set rank %d", res.Rank("Map"), res.Rank("Set"))
	}
	add := ir.Print(res.Sections[0])
	has := ir.Print(res.Sections[1])
	if !strings.Contains(add, "index.lock({get(group),put(group,*)})") {
		t.Errorf("AddMember plan:\n%s", add)
	}
	if !strings.Contains(add, "members.lock({add(member)})") {
		t.Errorf("AddMember must lock the member set for add:\n%s", add)
	}
	if !strings.Contains(has, "index.lock({get(group)})") {
		t.Errorf("HasMember plan:\n%s", has)
	}
	if !strings.Contains(has, "members.lock({contains(member)})") {
		t.Errorf("HasMember must lock the member set for contains:\n%s", has)
	}
	// Both sections share the same Map mode table.
	if res.Tables["Map"] == nil || res.Tables["Set"] == nil {
		t.Fatal("tables missing")
	}
	// Reads commute: contains modes always commute with each other.
	tbl := res.Tables["Set"]
	cRef := tbl.Set(lockSetOf(t, res.Sections[1], "members"))
	m1 := cRef.Mode(1)
	if !tbl.Commute(m1, m1) {
		t.Error("contains modes must self-commute")
	}

	// Generated output compiles both functions against one plan.
	src, err := Generate(f, res)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	for _, want := range []string{") AddMember(", ") HasMember(", "_semlockPlan"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

// lockSetOf finds the symbolic set the section's first lock of v uses.
func lockSetOf(t *testing.T, sec *ir.Atomic, v string) core.SymSet {
	t.Helper()
	var found core.SymSet
	var walk func(b ir.Block)
	walk = func(b ir.Block) {
		for _, s := range b {
			switch x := s.(type) {
			case *ir.LV:
				if x.Var == v && found == nil {
					found = x.Set
				}
			case *ir.If:
				walk(x.Then)
				walk(x.Else)
			case *ir.While:
				walk(x.Body)
			}
		}
	}
	walk(sec.Body)
	if found == nil {
		t.Fatalf("no lock of %q", v)
	}
	return found
}
