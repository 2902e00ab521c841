package sam

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	for i := range records {
		if err := writeRecord(bw, h, &records[i]); err != nil {
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

func writeRecord(bw *bufio.Writer, h *Header, r *Record) error {
	seq := "*"
	if len(r.Seq) > 0 {
		seq = string(r.Seq)
	}
	qual := "*"
	if len(r.Qual) > 0 {
		qual = string(r.Qual)
	}
	_, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s",
		r.Name, r.Flag, refName(h, r.RefID), r.Pos+1, r.MapQ, r.Cigar.String(),
		mateRefName(h, r), r.MatePos+1, r.TempLen, seq, qual)
	if err != nil {
		return err
	}
	if len(r.Tags) > 0 {
		keys := make([]string, 0, len(r.Tags))
		for k := range r.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(bw, "\t%s:Z:%s", k, r.Tags[k]); err != nil {
				return err
			}
		}
	}
	return bw.WriteByte('\n')
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

// remainingBytes reports how many bytes rd still holds when it can tell — an
// in-memory reader's Len, a regular file's size — and 0 otherwise.
func remainingBytes(rd io.Reader) int64 {
	switch v := rd.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// ReadText parses SAM text into a header and records.
func ReadText(rd io.Reader) (*Header, []Record, error) {
	size := remainingBytes(rd)
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
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if line[0] == '@' {
			if err := parseHeaderLine(h, refIndex, line); err != nil {
				return nil, nil, fmt.Errorf("sam: line %d: %w", lineNo, err)
			}
			continue
		}
		rec, err := parseRecordLine(refIndex, line)
		if err != nil {
			return nil, nil, fmt.Errorf("sam: line %d: %w", lineNo, err)
		}
		if records == nil && size > 0 {
			// Size the slice once from the first record line instead of
			// append-doubling 136-byte records; lines of one run differ by a
			// few digits, and append still covers an underestimate. The cap
			// and the clone below bound what a short first line can cost.
			records = make([]Record, 0, min(size/int64(len(line)+1)+1, 1<<20))
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("sam: scanning: %w", err)
	}
	if cap(records) > 2*len(records) {
		records = slices.Clone(records) // the guess was far over: give it back
	}
	return h, records, nil
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

func parseRecordLine(refIndex map[string]int32, line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 11 {
		return Record{}, fmt.Errorf("only %d fields", len(fields))
	}
	flag, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return Record{}, fmt.Errorf("bad flag %q", fields[1])
	}
	pos, ok := parseCoord(fields[3])
	if !ok {
		return Record{}, fmt.Errorf("bad pos %q", fields[3])
	}
	mapq, err := strconv.Atoi(fields[4])
	if err != nil || mapq < 0 || mapq > 255 {
		return Record{}, fmt.Errorf("bad mapq %q", fields[4])
	}
	cigar, err := ParseCigar(fields[5])
	if err != nil {
		return Record{}, err
	}
	if int64(pos)+int64(cigar.RefLen()) > math.MaxInt32 {
		return Record{}, fmt.Errorf("alignment at %s spanning %s ends past the coordinate range", fields[3], fields[5])
	}
	matePos, ok := parseCoord(fields[7])
	if !ok {
		return Record{}, fmt.Errorf("bad mate pos %q", fields[7])
	}
	tlen, err := strconv.ParseInt(fields[8], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("bad tlen %q", fields[8])
	}
	rec := Record{
		Name:    fields[0],
		Flag:    uint16(flag),
		RefID:   lookupRef(refIndex, fields[2]),
		Pos:     pos,
		MapQ:    uint8(mapq),
		Cigar:   cigar,
		MatePos: matePos,
		TempLen: int32(tlen),
	}
	switch fields[6] {
	case "*":
		rec.MateRef = -1
	case "=":
		rec.MateRef = rec.RefID
	default:
		rec.MateRef = lookupRef(refIndex, fields[6])
	}
	if fields[9] != "*" && fields[9] != "" {
		rec.Seq = []byte(fields[9])
	}
	if fields[10] != "*" && fields[10] != "" {
		rec.Qual = []byte(fields[10])
	}
	for _, f := range fields[11:] {
		parts := strings.SplitN(f, ":", 3)
		if len(parts) == 3 {
			if rec.Tags == nil {
				rec.Tags = map[string]string{}
			}
			rec.Tags[parts[0]] = parts[2]
		}
	}
	return rec, nil
}

// parseCoord parses a 1-based POS/PNEXT column — 0 for "unavailable", at most
// 2^31-1 — into the 0-based coordinate a Record holds.
func parseCoord(s string) (int32, bool) {
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v - 1), err == nil && v >= 0
}

func lookupRef(refIndex map[string]int32, name string) int32 {
	if name == "*" {
		return -1
	}
	if id, ok := refIndex[name]; ok {
		return id
	}
	return -1
}
