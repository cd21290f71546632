package gosrc

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedGeneratedFilesUpToDate regenerates the committed compiler
// outputs — the cia module's section and the Fig 1 example — from their
// annotated inputs and compares byte for byte: the committed outputs
// must always match what semlockc produces today.
func TestCommittedGeneratedFilesUpToDate(t *testing.T) {
	cases := []struct {
		input, output string
	}{
		{"../../examples/compiler/demo/input.go.txt", "../../examples/compiler/demo/demo_semlock.go"},
		{"../modules/cia/section.go", "../modules/cia/cia_semlock.go"},
	}
	for _, c := range cases {
		t.Run(filepath.Base(filepath.Dir(c.input)), func(t *testing.T) {
			f, err := ParseFile(c.input, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Generate(f, res)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(c.output)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("%s is stale; regenerate with:\n  go generate ./%s",
					c.output, filepath.Join("internal/gosrc", filepath.Dir(c.input)))
			}
		})
	}
}
