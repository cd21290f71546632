package gosrc

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const generateDirective = "//go:generate go run repro/cmd/semlockc "

// generateDirectives finds every semlockc //go:generate directive in the
// module rooted at root, returning each input and output path. Nested
// modules (a directory with its own go.mod) are not part of it.
func generateDirectives(t *testing.T, root string) (inputs, outputs []string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			args, ok := strings.CutPrefix(sc.Text(), generateDirective)
			if !ok {
				continue
			}
			var in, out string
			fields := strings.Fields(args)
			for i := 0; i+1 < len(fields); i++ {
				switch fields[i] {
				case "-in":
					in = fields[i+1]
				case "-out":
					out = fields[i+1]
				}
			}
			if in == "" || out == "" {
				t.Errorf("%s: directive %q names no -in and -out", path, sc.Text())
				continue
			}
			dir := filepath.Dir(path)
			inputs = append(inputs, filepath.Join(dir, in))
			outputs = append(outputs, filepath.Join(dir, out))
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return inputs, outputs
}

// TestCommittedGeneratedFilesUpToDate regenerates every committed
// compiler output named by a semlockc //go:generate directive in the
// module from its annotated input and compares byte for byte: the
// committed outputs must always match what semlockc produces today.
func TestCommittedGeneratedFilesUpToDate(t *testing.T) {
	inputs, outputs := generateDirectives(t, "../..")
	if len(inputs) == 0 {
		t.Fatal("no semlockc //go:generate directive found in the module")
	}
	for i, input := range inputs {
		output := outputs[i]
		t.Run(filepath.Base(filepath.Dir(input)), func(t *testing.T) {
			f, err := ParseFile(input, nil)
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
			got, err := os.ReadFile(output)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Errorf("%s is stale; regenerate with:\n  go generate ./%s",
					output, filepath.Join("internal/gosrc", filepath.Dir(input)))
			}
		})
	}
}
