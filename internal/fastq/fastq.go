// Package fastq implements the FASTQ genomic data format: records, streaming
// parse/write, and a paired-end read simulator with an empirical quality
// model. FASTQ is the input format of the GPF Aligner stage (§2.1 of the
// paper); records produced here flow into the engine as FASTQPairBundle
// resources.
package fastq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"github.com/gpf-go/gpf/internal/textio"
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

// Read parses the next record. It returns io.EOF at end of input. The record
// holds no reference to the scanner's buffer: the name is its own string, and
// seq and qual share one allocation, each capped so that an append to one
// cannot overwrite the other.
func (r *Reader) Read() (Record, error) {
	var name string
	var named, separated bool // line 1 starts with @, line 3 with +
	var seqQual []byte        // seq, then qual, in one allocation
	var seqLen int
	n := 0
	for ; n < 4 && r.sc.Scan(); n++ {
		r.line++
		// A line ends at LF or CRLF; stray CRs before it cannot be written
		// back, so they go with the terminator.
		line := bytes.TrimRight(r.sc.Bytes(), "\r")
		switch n {
		case 0:
			if named = len(line) > 0 && line[0] == '@'; named {
				name = string(line[1:])
			}
		case 1:
			// Room for a qual line as long as seq, which Validate requires.
			seqLen = len(line)
			seqQual = append(make([]byte, 0, 2*seqLen), line...)
		case 2:
			separated = len(line) > 0 && line[0] == '+'
		case 3:
			seqQual = append(seqQual, line...)
		}
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("fastq: line %d: %w", r.line, err)
	}
	if n == 0 {
		return Record{}, io.EOF
	}
	if n != 4 {
		return Record{}, fmt.Errorf("fastq: truncated record at line %d", r.line)
	}
	if !named {
		return Record{}, fmt.Errorf("fastq: line %d: missing @ header", r.line-3)
	}
	if !separated {
		return Record{}, fmt.Errorf("fastq: line %d: missing + separator", r.line-1)
	}
	rec := Record{
		Name: name,
		Seq:  seqQual[:seqLen:seqLen],
		Qual: seqQual[seqLen:len(seqQual):len(seqQual)],
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
	size := textio.Remaining(rd1)
	r1 := NewReader(rd1)
	r2 := NewReader(rd2)
	var out []Pair
	for {
		a, err1 := r1.Read()
		b, err2 := r2.Read()
		if err1 == io.EOF && err2 == io.EOF {
			return textio.Trim(out), nil
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
		if out == nil {
			out = textio.Sized[Pair](size, a.Bytes())
		}
		out = append(out, Pair{R1: a, R2: b})
	}
}
