package sam

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestFlagHelpers(t *testing.T) {
	r := Record{Flag: FlagPaired | FlagReverse | FlagFirstOfPair}
	if !r.Paired() || !r.Reverse() || !r.FirstOfPair() {
		t.Fatal("flag getters broken")
	}
	if r.Unmapped() || r.Duplicate() || r.Secondary() {
		t.Fatal("unset flags reported set")
	}
	r.SetDuplicate(true)
	if !r.Duplicate() {
		t.Fatal("SetDuplicate(true) failed")
	}
	r.SetDuplicate(false)
	if r.Duplicate() {
		t.Fatal("SetDuplicate(false) failed")
	}
}

func TestParseCigar(t *testing.T) {
	c, err := ParseCigar("5M2I3D10M")
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 4 || c[1].Op != 'I' || c[1].Len != 2 {
		t.Fatalf("parsed %v", c)
	}
	if c.String() != "5M2I3D10M" {
		t.Fatalf("String = %q", c.String())
	}
	if c.RefLen() != 18 {
		t.Fatalf("RefLen = %d, want 18", c.RefLen())
	}
	if !c.HasIndel() {
		t.Fatal("HasIndel should be true")
	}
	if star, err := ParseCigar("*"); err != nil || star != nil {
		t.Fatalf("* should parse to nil, got %v %v", star, err)
	}
	for _, bad := range []string{"5", "M", "0M", "5Z", "3M4"} {
		if _, err := ParseCigar(bad); err == nil {
			t.Fatalf("ParseCigar(%q) should fail", bad)
		}
	}
}

func TestCigarNormalize(t *testing.T) {
	c := Cigar{{3, 'M'}, {0, 'I'}, {2, 'M'}, {1, 'D'}}
	n := c.Normalize()
	if n.String() != "5M1D" {
		t.Fatalf("Normalize = %q", n.String())
	}
}

func TestCigarStringEmpty(t *testing.T) {
	if Cigar(nil).String() != "*" {
		t.Fatal("empty CIGAR should render as *")
	}
	if (Cigar{}).HasIndel() {
		t.Fatal("empty CIGAR has no indel")
	}
}

func TestUnclippedCoordinates(t *testing.T) {
	c, _ := ParseCigar("5S10M3S")
	r := Record{Pos: 100, Cigar: c}
	if got := r.UnclippedStart(); got != 95 {
		t.Fatalf("UnclippedStart = %d, want 95", got)
	}
	if got := r.End(); got != 110 {
		t.Fatalf("End = %d, want 110", got)
	}
	if got := r.UnclippedEnd(); got != 113 {
		t.Fatalf("UnclippedEnd = %d, want 113", got)
	}
}

func TestBaseQualitySum(t *testing.T) {
	// Phred 30 ('?') counts; phred 10 ('+') does not (threshold 15).
	r := Record{Qual: []byte{33 + 30, 33 + 10, 33 + 20}}
	if got := r.BaseQualitySum(); got != 50 {
		t.Fatalf("BaseQualitySum = %d, want 50", got)
	}
}

func TestCoordinateLess(t *testing.T) {
	a := &Record{RefID: 0, Pos: 100, Name: "a"}
	b := &Record{RefID: 0, Pos: 200, Name: "b"}
	c := &Record{RefID: 1, Pos: 0, Name: "c"}
	un := &Record{RefID: -1, Pos: 0, Name: "u", Flag: FlagUnmapped}
	less := func(a, b *Record) bool { return CoordinateCompare(a, b) < 0 }
	if !less(a, b) || !less(b, c) || !less(c, un) {
		t.Fatal("coordinate ordering broken")
	}
	if less(un, a) {
		t.Fatal("unmapped should sort last")
	}
	fwd := &Record{RefID: 0, Pos: 100, Name: "f"}
	rev := &Record{RefID: 0, Pos: 100, Name: "r", Flag: FlagReverse}
	if !less(fwd, rev) {
		t.Fatal("forward strand should sort before reverse at equal pos")
	}
}

func TestHeaderNewAndClone(t *testing.T) {
	h, err := NewHeader(Unsorted, []string{"chr1"}, []int{1000})
	if err != nil {
		t.Fatal(err)
	}
	c := h.Clone(Coordinate)
	if c.Sort != Coordinate || h.Sort != Unsorted {
		t.Fatal("Clone must not mutate original sort order")
	}
	c.RefNames[0] = "x"
	if h.RefNames[0] != "chr1" {
		t.Fatal("Clone must deep-copy slices")
	}
	if _, err := NewHeader(Unsorted, []string{"a"}, []int{1, 2}); err == nil {
		t.Fatal("mismatched name/length must error")
	}
}

func sampleRecords() (*Header, []Record) {
	h := &Header{Sort: Coordinate, RefNames: []string{"chr1", "chr2"}, RefLengths: []int{10000, 5000}, ReadGroups: []string{"rg1"}}
	c1, _ := ParseCigar("50M")
	c2, _ := ParseCigar("20M2D30M")
	return h, []Record{
		{Name: "r1", Flag: FlagPaired | FlagFirstOfPair, RefID: 0, Pos: 99, MapQ: 60, Cigar: c1,
			MateRef: 0, MatePos: 299, TempLen: 250, Seq: bytes.Repeat([]byte("A"), 50), Qual: bytes.Repeat([]byte("I"), 50),
			Tags: map[string]string{"RG": "rg1"}},
		{Name: "r2", Flag: FlagPaired | FlagSecondOfPair | FlagReverse, RefID: 1, Pos: 0, MapQ: 30, Cigar: c2,
			MateRef: 0, MatePos: 99, TempLen: -250, Seq: bytes.Repeat([]byte("C"), 50), Qual: bytes.Repeat([]byte("H"), 50)},
		{Name: "r3", Flag: FlagUnmapped, RefID: -1, Pos: -1, MateRef: -1, MatePos: -1},
	}
}

func TestTextRoundTrip(t *testing.T) {
	h, recs := sampleRecords()
	// Five tags per record: a writer that walks the tag map in iteration
	// order instead of sorted key order writes different text on two calls.
	for i := 0; i < 8; i++ {
		recs = append(recs, Record{Name: "t" + strconv.Itoa(i), Flag: FlagUnmapped, RefID: -1, Pos: -1,
			MateRef: -1, MatePos: -1, Seq: []byte("ACGT"), Qual: []byte("IIII"),
			Tags: map[string]string{"RG": "rg1", "LB": "lib1", "PG": "gpf", "MC": "50M", "XS": strconv.Itoa(i)}})
	}
	var buf, again bytes.Buffer
	if err := WriteText(&buf, h, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&again, h, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("writing the same records twice gave different text: tags written in map order")
	}
	h2, recs2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Sort != Coordinate || len(h2.RefNames) != 2 || h2.RefLengths[1] != 5000 {
		t.Fatalf("header mismatch: %+v", h2)
	}
	if len(h2.ReadGroups) != 1 || h2.ReadGroups[0] != "rg1" {
		t.Fatalf("read groups: %v", h2.ReadGroups)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("records = %d, want %d", len(recs2), len(recs))
	}
	for i := range recs {
		a, b := recs[i], recs2[i]
		if a.Name != b.Name || a.Flag != b.Flag || a.RefID != b.RefID || a.Pos != b.Pos ||
			a.MapQ != b.MapQ || a.Cigar.String() != b.Cigar.String() ||
			a.MateRef != b.MateRef || a.MatePos != b.MatePos || a.TempLen != b.TempLen ||
			!bytes.Equal(a.Seq, b.Seq) || !bytes.Equal(a.Qual, b.Qual) || !reflect.DeepEqual(a.Tags, b.Tags) {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
	if recs2[0].Tags["RG"] != "rg1" {
		t.Fatalf("tags lost: %v", recs2[0].Tags)
	}
}

// TestReadTextSizedAndUnsizedReadersAgree: ReadText pre-sizes its record slice
// when the reader can tell its size (a Len method, a regular file) and cannot
// otherwise; what it returns must not depend on which. The second text opens
// with a record line a tenth as long as the rest, so the size guess is ten
// times over and must be given back.
func TestReadTextSizedAndUnsizedReadersAgree(t *testing.T) {
	h, recs := sampleRecords()
	var even, shortFirst bytes.Buffer
	if err := WriteText(&even, h, recs); err != nil {
		t.Fatal(err)
	}
	long := Record{Name: "long", Flag: FlagUnmapped, RefID: -1, Pos: -1, MateRef: -1, MatePos: -1,
		Seq: bytes.Repeat([]byte("A"), 400), Qual: bytes.Repeat([]byte("I"), 400)}
	skewed := []Record{{Name: "s", Flag: FlagUnmapped, RefID: -1, Pos: -1, MateRef: -1, MatePos: -1, Seq: []byte("A"), Qual: []byte("I")}}
	for i := 0; i < 40; i++ {
		skewed = append(skewed, long)
	}
	if err := WriteText(&shortFirst, h, skewed); err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string][]byte{"even": even.Bytes(), "short first line": shortFirst.Bytes()} {
		path := filepath.Join(t.TempDir(), "in.sam")
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		wantH, want, err := ReadText(struct{ io.Reader }{bytes.NewReader(text)})
		if err != nil {
			t.Fatal(err)
		}
		for kind, rd := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(text), "os.File": f} {
			gotH, got, err := ReadText(rd)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, kind, err)
			}
			if !reflect.DeepEqual(gotH, wantH) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s and an unsized reader disagree", name, kind)
			}
			if cap(got) > 2*len(got) {
				t.Fatalf("%s, %s: %d records hold capacity for %d", name, kind, len(got), cap(got))
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"short line": "r1\t0\tchr1\t1\n",
		"bad flag":   "r1\tx\tchr1\t1\t60\t5M\t*\t0\t0\tACGTA\tIIIII\n",
		"bad pos":    "r1\t0\tchr1\tx\t60\t5M\t*\t0\t0\tACGTA\tIIIII\n",
		"bad cigar":  "r1\t0\tchr1\t1\t60\t5Q\t*\t0\t0\tACGTA\tIIIII\n",
		"bad mapq":   "r1\t0\tchr1\t1\t999\t5M\t*\t0\t0\tACGTA\tIIIII\n",
	}
	for name, in := range cases {
		if _, _, err := ReadText(bytes.NewBufferString(in)); err == nil {
			t.Fatalf("%s: expected parse error", name)
		}
	}
}

// TestReadTextRecordsDoNotPinLines: a record ReadText returns keeps its own
// fields, not the line it was parsed from. Each line carries a 2 KB optional
// field the parser skips (it has no second colon), so a record that shares
// memory with its line keeps over 2 KB alive.
func TestReadTextRecordsDoNotPinLines(t *testing.T) {
	const n = 1000
	pad := "XP:" + strings.Repeat("p", 2048)
	var text bytes.Buffer
	for i := 0; i < n; i++ {
		text.WriteString("r" + strconv.Itoa(i) + "\t0\t*\t0\t0\t4M\t*\t0\t0\tACGT\tIIII\tRG:Z:rg0\t" + pad + "\n")
	}
	in := bytes.NewReader(text.Bytes())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, recs, err := ReadText(in)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if len(recs) != n || recs[n-1].Tags["RG"] != "rg0" {
		t.Fatalf("parsed %d records, last %+v", len(recs), recs[len(recs)-1])
	}
	if perRecord >= 1024 {
		t.Fatalf("each kept record holds %d heap bytes of a %d-byte line", perRecord, text.Len()/n)
	}
}

// TestReadTextSeqQualDoNotAlias: seq and qual share one allocation, yet an
// append to seq leaves qual as parsed, and a write to qual leaves seq.
func TestReadTextSeqQualDoNotAlias(t *testing.T) {
	const line = "r\t0\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII\n"
	parse := func() Record {
		_, recs, err := ReadText(strings.NewReader(line))
		if err != nil || len(recs) != 1 {
			t.Fatalf("ReadText: %v, %d records", err, len(recs))
		}
		return recs[0]
	}
	r := parse()
	r.Seq = append(r.Seq, 'N', 'N')
	if string(r.Qual) != "IIII" {
		t.Fatalf("append to Seq changed Qual to %q", r.Qual)
	}
	r = parse()
	for i := range r.Qual {
		r.Qual[i] = '#'
	}
	if string(r.Seq) != "ACGT" {
		t.Fatalf("writes to Qual changed Seq to %q", r.Seq)
	}
}

func TestSortStability(t *testing.T) {
	_, recs := sampleRecords()
	// Shuffle deterministically then sort.
	recs[0], recs[2] = recs[2], recs[0]
	sort.Slice(recs, func(i, j int) bool { return CoordinateCompare(&recs[i], &recs[j]) < 0 })
	if recs[0].Name != "r1" || recs[2].Name != "r3" {
		t.Fatalf("sorted order: %s %s %s", recs[0].Name, recs[1].Name, recs[2].Name)
	}
}

// Property: for any generated CIGAR, text round-trip is the identity on the
// normalized form.
func TestCigarRoundTripProperty(t *testing.T) {
	ops := []byte("MIDNSHP=X")
	f := func(lens []uint8, opIdx []uint8) bool {
		n := len(lens)
		if len(opIdx) < n {
			n = len(opIdx)
		}
		var c Cigar
		for i := 0; i < n; i++ {
			c = append(c, CigarOp{Len: int(lens[i]%50) + 1, Op: ops[int(opIdx[i])%len(ops)]})
		}
		c = c.Normalize()
		back, err := ParseCigar(c.String())
		if err != nil {
			return false
		}
		return back.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: RefLen counts the M, D, N, = and X bases of any CIGAR, and
// skips insertions and clips.
func TestCigarLenConsistencyProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		var c Cigar
		ops := []byte{'M', 'I', 'D', 'S'}
		for i, l := range lens {
			c = append(c, CigarOp{Len: int(l%20) + 1, Op: ops[i%len(ops)]})
		}
		m, del := 0, 0
		for _, op := range c {
			switch op.Op {
			case 'M':
				m += op.Len
			case 'D':
				del += op.Len
			}
		}
		return c.RefLen() == m+del
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
