// Package fuzzcorpus seeds a fuzz target with another target's checked-in
// corpus (testdata/fuzz/<Target>), so that a differential fuzzer starts from
// the inputs its round-trip sibling was given:
//
//	func FuzzReadTextDifferential(f *testing.F) {
//		fuzzcorpus.Add(f, "FuzzReadText")
//		f.Fuzz(...)
//	}
package fuzzcorpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// header opens every corpus file go test writes.
const header = "go test fuzz v1"

// Add adds each entry of testdata/fuzz/<target> to f's seed corpus. It fails
// f when the directory is empty or an entry holds a value other than []byte.
func Add(f *testing.F, target string) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatalf("fuzzcorpus: no corpus entries for %s", target)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		args, err := parse(string(data))
		if err != nil {
			f.Fatalf("fuzzcorpus: %s: %v", p, err)
		}
		f.Add(args...)
	}
}

// parse reads one corpus entry: the header line, then one []byte("...")
// value a line.
func parse(entry string) ([]any, error) {
	lines := strings.Split(strings.TrimRight(entry, "\n"), "\n")
	if lines[0] != header {
		return nil, fmt.Errorf("first line %q, want %q", lines[0], header)
	}
	var args []any
	for _, l := range lines[1:] {
		inner, ok := strings.CutPrefix(l, "[]byte(")
		if inner, ok = strings.CutSuffix(inner, ")"); !ok {
			return nil, fmt.Errorf("value %q is not []byte", l)
		}
		s, err := strconv.Unquote(inner)
		if err != nil {
			return nil, fmt.Errorf("value %q: %v", l, err)
		}
		args = append(args, []byte(s))
	}
	return args, nil
}
