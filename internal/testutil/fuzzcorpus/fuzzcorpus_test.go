package fuzzcorpus

import (
	"reflect"
	"strconv"
	"testing"
)

// TestParse: an entry as go test writes it reads back as its values, and an
// entry of another type or without the header is refused.
func TestParse(t *testing.T) {
	a, b := []byte("r\t0\t*\r\n\x00\xff\"`"), []byte{}
	entry := header + "\n[]byte(" + strconv.QuoteToASCII(string(a)) + ")\n[]byte(" + strconv.Quote(string(b)) + ")\n"
	got, err := parse(entry)
	if err != nil {
		t.Fatal(err)
	}
	if want := []any{a, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %q, want %q", got, want)
	}
	for _, bad := range []string{"[]byte(\"x\")\n", header + "\nint(3)\n", header + "\n[]byte(\"x)\n"} {
		if _, err := parse(bad); err == nil {
			t.Fatalf("parse(%q) succeeded", bad)
		}
	}
}
