package sam

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The strings.Split text reader and the fmt.Fprintf text writer ReadText and
// WriteText replaced, kept as the oracle FuzzReadTextDifferential compares
// them against. A record the oracle parses is a substring of its line.

func readTextSplit(rd io.Reader) (*Header, []Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	h := &Header{Sort: Unsorted}
	refIndex := map[string]int32{}
	var records []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
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
		rec, err := parseRecordLineSplit(refIndex, line)
		if err != nil {
			return nil, nil, fmt.Errorf("sam: line %d: %w", lineNo, err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("sam: scanning: %w", err)
	}
	return h, records, nil
}

func parseRecordLineSplit(refIndex map[string]int32, line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 11 {
		return Record{}, fmt.Errorf("only %d fields", len(fields))
	}
	flag, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return Record{}, fmt.Errorf("bad flag %q", fields[1])
	}
	pos, ok := parseCoordString(fields[3])
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
	matePos, ok := parseCoordString(fields[7])
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
		RefID:   lookupRefString(refIndex, fields[2]),
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
		rec.MateRef = lookupRefString(refIndex, fields[6])
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

func parseCoordString(s string) (int32, bool) {
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v - 1), err == nil && v >= 0
}

func lookupRefString(refIndex map[string]int32, name string) int32 {
	if name == "*" {
		return -1
	}
	if id, ok := refIndex[name]; ok {
		return id
	}
	return -1
}

func writeTextFprintf(w io.Writer, h *Header, records []Record) error {
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
		r := &records[i]
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
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
