package sam

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/gpf-go/gpf/internal/textio"
)

// WriteText serializes header and records in SAM text format.
func WriteText(w io.Writer, h *Header, records []Record) error {
	bw := bufio.NewWriter(w)
	if h != nil {
		fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:%s\n", h.Sort)
		for i, name := range h.RefNames {
			fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", name, h.RefLengths[i])
		}
		for _, rg := range h.ReadGroups {
			fmt.Fprintf(bw, "@RG\tID:%s\n", rg)
		}
	}
	var line []byte
	var keys []string // one record's tag keys, sorted
	for i := range records {
		r := &records[i]
		keys = keys[:0]
		for k := range r.Tags {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		line = appendRecord(line[:0], h, r, keys)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func refName(h *Header, id int32) string {
	if h == nil || id < 0 || int(id) >= len(h.RefNames) {
		return "*"
	}
	return h.RefNames[id]
}

// appendRecord appends r's text line, its tags in the order of keys, to b.
func appendRecord(b []byte, h *Header, r *Record, keys []string) []byte {
	b = append(b, r.Name...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(r.Flag), 10)
	b = append(b, '\t')
	b = append(b, refName(h, r.RefID)...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Pos+1), 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(r.MapQ), 10)
	b = append(b, '\t')
	b = r.Cigar.appendText(b)
	b = append(b, '\t')
	b = append(b, mateRefName(h, r)...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.MatePos+1), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.TempLen), 10)
	b = append(b, '\t')
	b = appendColumn(b, r.Seq)
	b = append(b, '\t')
	b = appendColumn(b, r.Qual)
	for _, k := range keys {
		b = append(b, '\t')
		b = append(b, k...)
		b = append(b, ":Z:"...)
		b = append(b, r.Tags[k]...)
	}
	return append(b, '\n')
}

// appendColumn appends a SEQ or QUAL column: "*" when absent.
func appendColumn(b, col []byte) []byte {
	if len(col) == 0 {
		return append(b, '*')
	}
	return append(b, col...)
}

func mateRefName(h *Header, r *Record) string {
	if r.MateRef < 0 {
		return "*"
	}
	if r.MateRef == r.RefID {
		return "="
	}
	return refName(h, r.MateRef)
}

// ReadText parses SAM text into a header and records. A record holds no
// reference to its line: the name and tags are copied into their own strings,
// and seq and qual share one allocation, each capped so that an append to one
// cannot overwrite the other.
func ReadText(rd io.Reader) (*Header, []Record, error) {
	size := textio.Remaining(rd)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	h := &Header{Sort: Unsorted}
	refIndex := map[string]int32{}
	var records []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// A line ends at LF or CRLF; stray CRs before it cannot be written
		// back, so they go with the terminator.
		line := bytes.TrimRight(sc.Bytes(), "\r")
		if len(line) == 0 {
			continue
		}
		if line[0] == '@' {
			if err := parseHeaderLine(h, refIndex, string(line)); err != nil {
				return nil, nil, fmt.Errorf("sam: line %d: %w", lineNo, err)
			}
			continue
		}
		rec, err := parseRecordLine(refIndex, line)
		if err != nil {
			return nil, nil, fmt.Errorf("sam: line %d: %w", lineNo, err)
		}
		if records == nil {
			records = textio.Sized[Record](size, len(line)+1)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("sam: scanning: %w", err)
	}
	return h, textio.Trim(records), nil
}

func parseHeaderLine(h *Header, refIndex map[string]int32, line string) error {
	fields := strings.Split(line, "\t")
	switch fields[0] {
	case "@HD":
		for _, f := range fields[1:] {
			if strings.HasPrefix(f, "SO:") {
				h.Sort = SortOrder(f[3:])
			}
		}
	case "@SQ":
		var name string
		var length int
		for _, f := range fields[1:] {
			switch {
			case strings.HasPrefix(f, "SN:"):
				name = f[3:]
			case strings.HasPrefix(f, "LN:"):
				n, err := strconv.Atoi(f[3:])
				if err != nil {
					return fmt.Errorf("bad LN in %q", line)
				}
				length = n
			}
		}
		if name == "" {
			return fmt.Errorf("@SQ without SN in %q", line)
		}
		refIndex[name] = int32(len(h.RefNames))
		h.RefNames = append(h.RefNames, name)
		h.RefLengths = append(h.RefLengths, length)
	case "@RG":
		for _, f := range fields[1:] {
			if strings.HasPrefix(f, "ID:") {
				h.ReadGroups = append(h.ReadGroups, f[3:])
			}
		}
	}
	return nil
}

// parseRecordLine parses one record line in place: the scanner reuses line's
// bytes, so everything the record keeps is copied out of it. Numeric columns
// go through strconv as short-lived strings, which do not leave the stack.
func parseRecordLine(refIndex map[string]int32, line []byte) (Record, error) {
	var f [11][]byte // the mandatory columns QNAME..QUAL
	n, rest, more := 0, line, true
	for ; n < len(f) && more; n++ {
		f[n], rest, more = bytes.Cut(rest, []byte{'\t'})
	}
	if n < len(f) {
		return Record{}, fmt.Errorf("only %d fields", n)
	}
	flag, err := strconv.ParseUint(string(f[1]), 10, 16)
	if err != nil {
		return Record{}, fmt.Errorf("bad flag %q", f[1])
	}
	pos, ok := parseCoord(f[3])
	if !ok {
		return Record{}, fmt.Errorf("bad pos %q", f[3])
	}
	mapq, err := strconv.Atoi(string(f[4]))
	if err != nil || mapq < 0 || mapq > 255 {
		return Record{}, fmt.Errorf("bad mapq %q", f[4])
	}
	cigar, err := parseCigar(f[5])
	if err != nil {
		return Record{}, err
	}
	if int64(pos)+int64(cigar.RefLen()) > math.MaxInt32 {
		return Record{}, fmt.Errorf("alignment at %s spanning %s ends past the coordinate range", f[3], f[5])
	}
	matePos, ok := parseCoord(f[7])
	if !ok {
		return Record{}, fmt.Errorf("bad mate pos %q", f[7])
	}
	tlen, err := strconv.ParseInt(string(f[8]), 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad tlen %q", f[8])
	}
	rec := Record{
		Name:    string(f[0]),
		Flag:    uint16(flag),
		RefID:   lookupRef(refIndex, f[2]),
		Pos:     pos,
		MapQ:    uint8(mapq),
		Cigar:   cigar,
		MatePos: matePos,
		TempLen: int32(tlen),
	}
	switch string(f[6]) {
	case "*":
		rec.MateRef = -1
	case "=":
		rec.MateRef = rec.RefID
	default:
		rec.MateRef = lookupRef(refIndex, f[6])
	}
	seq, qual := present(f[9]), present(f[10])
	if len(seq)+len(qual) > 0 {
		b := append(append(make([]byte, 0, len(seq)+len(qual)), seq...), qual...)
		if len(seq) > 0 {
			rec.Seq = b[:len(seq):len(seq)]
		}
		if len(qual) > 0 {
			rec.Qual = b[len(seq):]
		}
	}
	// An optional field is TAG:TYPE:VALUE; one without a second colon is
	// skipped.
	for more {
		var field []byte
		field, rest, more = bytes.Cut(rest, []byte{'\t'})
		key, typed, ok := bytes.Cut(field, []byte{':'})
		if !ok {
			continue
		}
		if _, value, ok := bytes.Cut(typed, []byte{':'}); ok {
			if rec.Tags == nil {
				rec.Tags = map[string]string{}
			}
			rec.Tags[string(key)] = string(value)
		}
	}
	return rec, nil
}

// present returns a SEQ or QUAL column, or nil when it is "*" (absent).
func present(col []byte) []byte {
	if len(col) == 1 && col[0] == '*' {
		return nil
	}
	return col
}

// parseCoord parses a 1-based POS/PNEXT column — 0 for "unavailable", at most
// 2^31-1 — into the 0-based coordinate a Record holds.
func parseCoord(s []byte) (int32, bool) {
	v, err := strconv.ParseInt(string(s), 10, 32)
	return int32(v - 1), err == nil && v >= 0
}

func lookupRef(refIndex map[string]int32, name []byte) int32 {
	if string(name) == "*" {
		return -1
	}
	if id, ok := refIndex[string(name)]; ok {
		return id
	}
	return -1
}
