package fastq

import (
	"fmt"
	"io"
	"strings"
)

// The line-string reader Reader.Read and ReadPairs replaced, kept as the
// oracle FuzzReadPairsDifferential compares them against. A record the
// oracle parses holds a substring of its header line.

func (r *Reader) readSplit() (Record, error) {
	lines := make([]string, 0, 4)
	for len(lines) < 4 && r.sc.Scan() {
		r.line++
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

func readPairsSplit(rd1, rd2 io.Reader) ([]Pair, error) {
	r1 := NewReader(rd1)
	r2 := NewReader(rd2)
	var out []Pair
	for {
		a, err1 := r1.readSplit()
		b, err2 := r2.readSplit()
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
