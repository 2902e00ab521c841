// Package fastq implements the FASTQ genomic data format: records, streaming
// parse/write, and a paired-end read simulator with an empirical quality
// model. FASTQ is the input format of the GPF Aligner stage (§2.1 of the
// paper); records produced here flow into the engine as FASTQPairBundle
// resources.
package fastq

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Quality score encoding bounds: Phred+33 ASCII. The paper (§4.2, footnote 1)
// gives the legal range of an encoded quality character as [33, 126].
const (
	QualMin = 33
	QualMax = 126
)

// Record is a single FASTQ read. Seq and Qual have equal length; Qual holds
// ASCII Phred+33 characters exactly as stored in the file. Per the paper's
// measurement, Seq and Qual account for 80-90% of record bytes, which is why
// the GPF codec compresses exactly these two fields.
type Record struct {
	Name string
	Seq  []byte
	Qual []byte
}

// Validate checks structural invariants of the record.
func (r *Record) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("fastq: empty read name")
	}
	if len(r.Seq) != len(r.Qual) {
		return fmt.Errorf("fastq: read %s: seq len %d != qual len %d", r.Name, len(r.Seq), len(r.Qual))
	}
	for i, q := range r.Qual {
		if q < QualMin || q > QualMax {
			return fmt.Errorf("fastq: read %s: quality byte %d out of range at %d", r.Name, q, i)
		}
	}
	return nil
}

// Bytes returns the approximate serialized size of the record in FASTQ text
// form, used for I/O accounting.
func (r *Record) Bytes() int {
	return len(r.Name) + len(r.Seq) + len(r.Qual) + 6 // @, +, 4 newlines
}

// Pair is a paired-end read: two mates sequenced from opposite ends of one
// DNA fragment. GPF's FASTQPairBundle holds RDDs of these.
type Pair struct {
	R1 Record
	R2 Record
}

// Bytes returns the serialized size of both mates.
func (p *Pair) Bytes() int { return p.R1.Bytes() + p.R2.Bytes() }

// Writer streams records in FASTQ text format.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w for FASTQ output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write emits one record.
func (w *Writer) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w.bw, "@%s\n%s\n+\n%s\n", r.Name, r.Seq, r.Qual); err != nil {
		return err
	}
	return nil
}

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams records from FASTQ text input.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r for FASTQ input.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<24)
	return &Reader{sc: sc}
}

// Read parses the next record. It returns io.EOF at end of input.
func (r *Reader) Read() (Record, error) {
	lines := make([]string, 0, 4)
	for len(lines) < 4 && r.sc.Scan() {
		r.line++
		// A line ends at LF or CRLF; stray CRs before it cannot be written
		// back, so they go with the terminator.
		lines = append(lines, strings.TrimRight(r.sc.Text(), "\r"))
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("fastq: line %d: %w", r.line, err)
	}
	if len(lines) == 0 {
		return Record{}, io.EOF
	}
	if len(lines) != 4 {
		return Record{}, fmt.Errorf("fastq: truncated record at line %d", r.line)
	}
	if len(lines[0]) == 0 || lines[0][0] != '@' {
		return Record{}, fmt.Errorf("fastq: line %d: missing @ header", r.line-3)
	}
	if len(lines[2]) == 0 || lines[2][0] != '+' {
		return Record{}, fmt.Errorf("fastq: line %d: missing + separator", r.line-1)
	}
	rec := Record{
		Name: lines[0][1:],
		Seq:  []byte(lines[1]),
		Qual: []byte(lines[3]),
	}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ReadPairs zips two mate streams (1.fastq / 2.fastq) into Pairs, erroring on
// length mismatch. This is the substrate of FileLoader.loadFastqPairToRdd in
// the paper's Fig 3.
func ReadPairs(rd1, rd2 io.Reader) ([]Pair, error) {
	r1 := NewReader(rd1)
	r2 := NewReader(rd2)
	var out []Pair
	for {
		a, err1 := r1.Read()
		b, err2 := r2.Read()
		if err1 == io.EOF && err2 == io.EOF {
			return out, nil
		}
		if err1 == io.EOF || err2 == io.EOF {
			return nil, fmt.Errorf("fastq: mate files have unequal record counts")
		}
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		out = append(out, Pair{R1: a, R2: b})
	}
}
