// Package cleaner implements the Cleaner stage of the WGS pipeline (§2.1):
// duplicate marking (Picard-style), indel realignment and base quality score
// recalibration (GATK-style). Each function operates on a slice of SAM
// records — one engine partition — so the GPF Processes can run them in
// parallel over position-partitioned data.
package cleaner

import (
	"cmp"
	"slices"

	"github.com/gpf-go/gpf/internal/sam"
)

// dupKey identifies reads that are PCR/optical duplicates of each other: the
// library, the 5'-unclipped alignment coordinates and strands of both ends
// of the sequenced fragment (Picard's signature; §2.1: "reads with identical
// position and orientation").
type dupKey struct {
	lib        string
	ref1, pos1 int32
	rev1       bool
	ref2, pos2 int32
	rev2       bool
	paired     bool
}

// fivePrime returns the strand-aware unclipped 5' coordinate of the read:
// the unclipped start for forward reads, the unclipped end for reverse ones.
func fivePrime(r *sam.Record) int32 {
	if r.Reverse() {
		return r.UnclippedEnd()
	}
	return r.UnclippedStart()
}

func library(r *sam.Record) string {
	if r.Tags != nil {
		if lb, ok := r.Tags["LB"]; ok {
			return lb
		}
	}
	return ""
}

// signature computes the duplicate key for a record. Mate coordinates come
// from the record's mate fields; for unpaired (or mate-unmapped) reads only
// this end participates.
func signature(r *sam.Record) dupKey {
	k := dupKey{
		lib:  library(r),
		ref1: r.RefID, pos1: fivePrime(r), rev1: r.Reverse(),
	}
	if r.Paired() && r.Flag&sam.FlagMateUnmapped == 0 && r.MateRef >= 0 {
		k.paired = true
		k.ref2 = r.MateRef
		// The mate's exact unclipped 5' needs the mate's CIGAR; MatePos is
		// the standard approximation used when mates live in other
		// partitions.
		k.pos2 = r.MatePos
		k.rev2 = r.Flag&sam.FlagMateReverse != 0
		// Canonicalize end order so both mates produce the same key.
		if k.ref2 < k.ref1 || (k.ref2 == k.ref1 && k.pos2 < k.pos1) {
			k.ref1, k.ref2 = k.ref2, k.ref1
			k.pos1, k.pos2 = k.pos2, k.pos1
			k.rev1, k.rev2 = k.rev2, k.rev1
		}
	}
	return k
}

// MarkDuplicates flags duplicate records in place and returns the number
// marked. Within each signature group the read with the highest base-quality
// sum survives (ties broken by name for determinism); secondary and unmapped
// records are ignored.
func MarkDuplicates(records []sam.Record) int {
	groups := map[dupKey][]int{}
	for i := range records {
		r := &records[i]
		if r.Unmapped() || r.Secondary() {
			continue
		}
		k := signature(r)
		groups[k] = append(groups[k], i)
	}
	marked := 0
	for _, idxs := range groups {
		if len(idxs) < 2 {
			if len(idxs) == 1 {
				records[idxs[0]].SetDuplicate(false)
			}
			continue
		}
		best := idxs[0]
		for _, i := range idxs[1:] {
			bi, bb := &records[i], &records[best]
			si, sb := bi.BaseQualitySum(), bb.BaseQualitySum()
			if si > sb || (si == sb && bi.Name < bb.Name) {
				best = i
			}
		}
		for _, i := range idxs {
			records[i].SetDuplicate(i != best)
			if i != best {
				marked++
			}
		}
	}
	return marked
}

// GroupKey returns a partitioning key under which all duplicates of a
// fragment land in the same partition: a hash of the canonical duplicate
// signature. The MarkDuplicateProcess shuffles on this before marking.
func GroupKey(r *sam.Record) int {
	k := signature(r)
	h := int64(1469598103934665603) // FNV-ish mix over the signature fields
	mix := func(v int64) {
		h ^= v
		h *= 1099511628211
	}
	mix(int64(k.ref1))
	mix(int64(k.pos1))
	if k.rev1 {
		mix(1)
	}
	mix(int64(k.ref2))
	mix(int64(k.pos2))
	if k.rev2 {
		mix(2)
	}
	for _, c := range k.lib {
		mix(int64(c))
	}
	if h < 0 {
		h = -h
	}
	return int(h)
}

// SortByCoordinate sorts records in place by genomic coordinate (the
// Cleaner's sort step), stably: the order of sam.CoordinateCompare, ties kept
// in input order. It sorts a permutation — index swaps, not 136-byte record
// swaps through reflection — with the input position as the last key, which
// makes the order total and the unstable sort's result the stable one, and
// applies it once.
func SortByCoordinate(records []sam.Record) {
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := sam.CoordinateCompare(&records[a], &records[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]sam.Record, len(records))
	for i, j := range order {
		sorted[i] = records[j]
	}
	copy(records, sorted)
}
