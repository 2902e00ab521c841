// Package vcf implements the VCF variant format: records, headers, text
// round-trip and truth-set comparison. VCF is the output format of the GPF
// Caller stage (§2.1); the paper's VCFBundle wraps datasets of these records.
package vcf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Genotype encodes a diploid call.
type Genotype int

// Diploid genotypes emitted by the caller.
const (
	HomRef Genotype = iota
	Het
	HomAlt
)

// String renders the genotype in VCF GT syntax.
func (g Genotype) String() string {
	switch g {
	case Het:
		return "0/1"
	case HomAlt:
		return "1/1"
	default:
		return "0/0"
	}
}

// ParseGenotype parses VCF GT syntax (both / and | separators).
func ParseGenotype(s string) (Genotype, error) {
	s = strings.ReplaceAll(s, "|", "/")
	switch s {
	case "0/0":
		return HomRef, nil
	case "0/1", "1/0":
		return Het, nil
	case "1/1":
		return HomAlt, nil
	default:
		return HomRef, fmt.Errorf("vcf: unsupported genotype %q", s)
	}
}

// Record is one variant call. Chrom is a contig name; Pos is 0-based
// internally (written 1-based). Qual is the Phred-scaled variant quality.
type Record struct {
	Chrom string
	Pos   int
	Ref   string
	Alt   string
	Qual  float64
	GT    Genotype
	Depth int
	Info  map[string]string
}

// IsSNV reports whether the record is a single-nucleotide variant.
func (r *Record) IsSNV() bool { return len(r.Ref) == 1 && len(r.Alt) == 1 }

// IsIndel reports whether the record is an insertion or deletion.
func (r *Record) IsIndel() bool { return len(r.Ref) != len(r.Alt) }

// Header is the VCF header: contig dictionary plus sample name. This mirrors
// VcfHeaderInfo in the paper's API (Fig 3).
type Header struct {
	Contigs []ContigInfo
	Sample  string
}

// ContigInfo is one ##contig entry.
type ContigInfo struct {
	Name   string
	Length int
}

// NewHeader builds a header from contig names/lengths.
func NewHeader(names []string, lengths []int, sample string) *Header {
	h := &Header{Sample: sample}
	for i, n := range names {
		length := 0
		if i < len(lengths) {
			length = lengths[i]
		}
		h.Contigs = append(h.Contigs, ContigInfo{Name: n, Length: length})
	}
	return h
}

// Write serializes header and records as VCF 4.2 text.
func Write(w io.Writer, h *Header, records []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "##fileformat=VCFv4.2")
	fmt.Fprintln(bw, "##source=gpf-go")
	sample := "SAMPLE"
	if h != nil {
		if h.Sample != "" {
			sample = h.Sample
		}
		for _, c := range h.Contigs {
			fmt.Fprintf(bw, "##contig=<ID=%s,length=%d>\n", c.Name, c.Length)
		}
	}
	fmt.Fprintf(bw, "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t%s\n", sample)
	for i := range records {
		r := &records[i]
		info := "."
		if len(r.Info) > 0 {
			keys := make([]string, 0, len(r.Info))
			for k := range r.Info {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys)+1)
			for _, k := range keys {
				parts = append(parts, k+"="+r.Info[k])
			}
			info = strings.Join(parts, ";")
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t.\t%s\t%s\t%.2f\tPASS\t%s\tGT:DP\t%s:%d\n",
			r.Chrom, r.Pos+1, r.Ref, r.Alt, r.Qual, info, r.GT, r.Depth); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses VCF text.
func Read(rd io.Reader) (*Header, []Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	h := &Header{}
	var records []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// A line ends at LF or CRLF; stray CRs before it cannot be written
		// back, so they go with the terminator.
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case line == "":
		case strings.HasPrefix(line, "##contig=<"):
			ci, err := parseContigLine(line)
			if err != nil {
				return nil, nil, fmt.Errorf("vcf: line %d: %w", lineNo, err)
			}
			h.Contigs = append(h.Contigs, ci)
		case strings.HasPrefix(line, "#CHROM"):
			fields := strings.Split(line, "\t")
			if len(fields) >= 10 {
				h.Sample = fields[9]
			}
		case strings.HasPrefix(line, "#"):
		default:
			rec, err := parseRecordLine(line)
			if err != nil {
				return nil, nil, fmt.Errorf("vcf: line %d: %w", lineNo, err)
			}
			records = append(records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("vcf: scanning: %w", err)
	}
	return h, records, nil
}

func parseContigLine(line string) (ContigInfo, error) {
	body := strings.TrimSuffix(strings.TrimPrefix(line, "##contig=<"), ">")
	var ci ContigInfo
	for _, kv := range strings.Split(body, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			continue
		}
		switch parts[0] {
		case "ID":
			ci.Name = parts[1]
		case "length":
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return ci, fmt.Errorf("bad contig length %q", parts[1])
			}
			ci.Length = n
		}
	}
	if ci.Name == "" {
		return ci, fmt.Errorf("contig line without ID")
	}
	return ci, nil
}

func parseRecordLine(line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 8 {
		return Record{}, fmt.Errorf("only %d fields", len(fields))
	}
	pos, err := strconv.Atoi(fields[1])
	if err != nil || pos < 0 {
		return Record{}, fmt.Errorf("bad pos %q", fields[1])
	}
	qual := 0.0
	if fields[5] != "." {
		qual, err = strconv.ParseFloat(fields[5], 64)
		if err != nil || math.IsNaN(qual) || math.IsInf(qual, 0) {
			return Record{}, fmt.Errorf("bad qual %q", fields[5])
		}
	}
	rec := Record{Chrom: fields[0], Pos: pos - 1, Ref: fields[3], Alt: fields[4], Qual: qual}
	if fields[7] != "." {
		for _, kv := range strings.Split(fields[7], ";") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) == 2 {
				if rec.Info == nil {
					rec.Info = map[string]string{}
				}
				rec.Info[parts[0]] = parts[1]
			}
		}
	}
	if len(fields) >= 10 {
		fmtKeys := strings.Split(fields[8], ":")
		vals := strings.Split(fields[9], ":")
		for i, k := range fmtKeys {
			if i >= len(vals) {
				break
			}
			switch k {
			case "GT":
				gt, err := ParseGenotype(vals[i])
				if err != nil {
					return Record{}, err
				}
				rec.GT = gt
			case "DP":
				if n, err := strconv.Atoi(vals[i]); err == nil {
					rec.Depth = n
				}
			}
		}
	}
	return rec, nil
}

// SortRecords orders records by (chrom, pos, ref, alt).
func SortRecords(records []Record) {
	sort.Slice(records, func(i, j int) bool {
		a, b := &records[i], &records[j]
		if a.Chrom != b.Chrom {
			return a.Chrom < b.Chrom
		}
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Ref != b.Ref {
			return a.Ref < b.Ref
		}
		return a.Alt < b.Alt
	})
}

// SortDedup sorts records with SortRecords and keeps the first of each run
// of records equal in (chrom, pos, ref, alt), reusing records' storage. Calls
// made twice, from overlapping active regions or adjacent partitions, become
// one.
func SortDedup(records []Record) []Record {
	SortRecords(records)
	dedup := records[:0]
	for i, r := range records {
		if i > 0 {
			p := dedup[len(dedup)-1]
			if p.Chrom == r.Chrom && p.Pos == r.Pos && p.Ref == r.Ref && p.Alt == r.Alt {
				continue
			}
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// CompareStats summarizes a call set against a truth set.
type CompareStats struct {
	TruePositive  int
	FalsePositive int
	FalseNegative int
}

// Precision returns TP / (TP + FP), or 0 when no calls exist.
func (s CompareStats) Precision() float64 {
	d := s.TruePositive + s.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(s.TruePositive) / float64(d)
}

// Recall returns TP / (TP + FN), or 0 when the truth set is empty.
func (s CompareStats) Recall() float64 {
	d := s.TruePositive + s.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(s.TruePositive) / float64(d)
}

// Compare matches called records against truth records keyed by
// (chrom, pos, ref, alt). posTolerance allows indel representation slack.
func Compare(calls, truth []Record, posTolerance int) CompareStats {
	type key struct {
		chrom    string
		ref, alt string
	}
	byKey := map[key][]int{}
	for _, tv := range truth {
		k := key{tv.Chrom, tv.Ref, tv.Alt}
		byKey[k] = append(byKey[k], tv.Pos)
	}
	for _, ps := range byKey {
		sort.Ints(ps)
	}
	matchedTruth := map[string]bool{}
	var stats CompareStats
	for _, c := range calls {
		k := key{c.Chrom, c.Ref, c.Alt}
		found := false
		for _, p := range byKey[k] {
			if abs(p-c.Pos) <= posTolerance {
				id := fmt.Sprintf("%s:%d:%s>%s", c.Chrom, p, c.Ref, c.Alt)
				if !matchedTruth[id] {
					matchedTruth[id] = true
					found = true
					break
				}
			}
		}
		if found {
			stats.TruePositive++
		} else {
			stats.FalsePositive++
		}
	}
	stats.FalseNegative = len(truth) - stats.TruePositive
	if stats.FalseNegative < 0 {
		stats.FalseNegative = 0
	}
	return stats
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
