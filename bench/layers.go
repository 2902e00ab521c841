package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/caller"
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/engine/exec/mproc"
	"github.com/gpf-go/gpf/internal/fastq"
	"github.com/gpf-go/gpf/internal/genome"
	"github.com/gpf-go/gpf/internal/sam"
)

// Replay sample caps: fixed strides over the workload's own data keep the
// traced pass inside the run budget while the per-item costs stay comparable
// between commits (same seed, same items).
const (
	maxAlignPairs  = 1500
	maxFitReads    = 3000
	maxCodecChunks = 4
	maxCallRegions = 48
	maxHMMRegions  = 8
	maxHMMReads    = 64
)

// stride returns the step that visits at most limit of n items.
func stride(n, limit int) int {
	if n <= limit {
		return 1
	}
	return (n + limit - 1) / limit
}

// chunksOf returns the first maxCodecChunks partition-sized chunks of items.
func chunksOf[T any](items []T, parts int) [][]T {
	size := (len(items) + parts - 1) / parts
	var out [][]T
	for c := 0; c < maxCodecChunks && c*size < len(items); c++ {
		out = append(out, items[c*size:min((c+1)*size, len(items))])
	}
	return out
}

// replayLayers feeds the workload's own data single-threaded through every
// module's exported functions, one span per module call, and writes the
// per-layer costs into out. Every module is replayed on every workload — what
// a module costs on this workload's reads is defined whether or not the
// workload's pipeline calls it; whether it does is what the *_share metrics
// of the timed pass say. Reads the workload holds only as alignments are
// turned back into pairs, and pairs into alignments by the pipeline's own
// aligner stage.
func replayLayers(h *held, spec childSpec, tr *tracer, out map[string]float64) error {
	rt := h.rt
	pairs, recs := h.pairs, h.input
	if spec.Workload == "wgs" {
		var err error
		if recs, err = engine.Collect("replay/aligned", h.sams[0].Data); err != nil {
			return err
		}
	} else {
		pairs = pairsOf(recs)
	}
	if len(pairs) == 0 || len(recs) == 0 {
		return fmt.Errorf("nothing to replay: %d pairs, %d records", len(pairs), len(recs))
	}
	for _, step := range []func() error{
		func() error { return replayFASTQ(pairs, spec.NumPartitions, tr, out) },
		func() error { return replaySAMText(recs, h.sams[0].Header, spec.NumPartitions, tr, out) },
		func() error { return replayAlign(pairs, recs, rt, tr, out) },
		func() error { return replayPairCodec(pairs, spec.NumPartitions, tr, out) },
		func() error { return replayColfmt(recs, spec.NumPartitions, tr, out) },
		func() error { return replayShuffle(recs, spec, rt, tr, out) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	replayCaller(replayCleaner(recs, rt, tr, out), rt, tr, out)
	out["caller.calls"] = float64(h.calls)
	var err error
	out["mproc.startup_s"] = tr.do("mproc.Run(noop)", func() {
		_, err = mproc.Run(mprocNoopJob, nil, mproc.Options{Procs: spec.Slots, Slots: 1})
	})
	return err
}

// pairsOf turns alignments back into the read pairs they came from: mates
// joined by name, reverse-strand mates flipped back to sequencing orientation.
func pairsOf(recs []sam.Record) []fastq.Pair {
	at := map[string]int{}
	var pairs []fastq.Pair
	for i := range recs {
		r := &recs[i]
		if r.Secondary() || len(r.Seq) == 0 {
			continue
		}
		read := fastq.Record{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
		if r.Reverse() {
			read.Seq = genome.ReverseComplement(r.Seq)
			read.Qual = make([]byte, len(r.Qual))
			for j, q := range r.Qual {
				read.Qual[len(r.Qual)-1-j] = q
			}
		}
		idx, seen := at[r.Name]
		if !seen {
			idx = len(pairs)
			at[r.Name] = idx
			pairs = append(pairs, fastq.Pair{})
		}
		if r.FirstOfPair() {
			pairs[idx].R1 = read
		} else {
			pairs[idx].R2 = read
		}
	}
	whole := pairs[:0]
	for _, p := range pairs {
		if len(p.R1.Seq) > 0 && len(p.R2.Seq) > 0 {
			whole = append(whole, p)
		}
	}
	return whole
}

// replayFASTQ times the FASTQ parser on partition-sized chunks held in memory.
func replayFASTQ(pairs []fastq.Pair, parts int, tr *tracer, out map[string]float64) error {
	var err error
	var text int
	var d float64
	for _, ps := range chunksOf(pairs, parts) {
		var b1, b2 bytes.Buffer
		w1, w2 := fastq.NewWriter(&b1), fastq.NewWriter(&b2)
		for i := range ps {
			if err = w1.Write(&ps[i].R1); err == nil {
				err = w2.Write(&ps[i].R2)
			}
			if err != nil {
				return err
			}
		}
		_, _ = w1.Flush(), w2.Flush() // bytes.Buffer writes cannot fail
		text += b1.Len() + b2.Len()
		d += tr.do("fastq.ReadPairs", func() { _, err = fastq.ReadPairs(&b1, &b2) })
		if err != nil {
			return err
		}
	}
	out["fastq.read_pairs_mb_per_s"] = float64(text) / 1e6 / d
	return nil
}

// replaySAMText times the SAM text writer and parser on partition-sized
// chunks held in memory.
func replaySAMText(recs []sam.Record, header *sam.Header, parts int, tr *tracer, out map[string]float64) error {
	var err error
	var text int
	var wr, rd float64
	for _, rs := range chunksOf(recs, parts) {
		var buf bytes.Buffer
		wr += tr.do("sam.WriteText", func() { err = sam.WriteText(&buf, header, rs) })
		if err != nil {
			return err
		}
		text += buf.Len()
		rd += tr.do("sam.ReadText", func() { _, _, err = sam.ReadText(&buf) })
		if err != nil {
			return err
		}
	}
	out["sam.write_text_mb_per_s"] = float64(text) / 1e6 / wr
	out["sam.read_text_mb_per_s"] = float64(text) / 1e6 / rd
	return nil
}

func replayAlign(pairs []fastq.Pair, recs []sam.Record, rt *core.Runtime, tr *tracer, out map[string]float64) error {
	var idx *align.FMIndex
	var err error
	out["align.build_index_s"] = tr.do("align.BuildFMIndex", func() { idx, err = align.BuildFMIndex(rt.Ref) })
	if err != nil {
		return err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	step := stride(len(pairs), maxAlignPairs)
	var n, mapped, proper int
	d := tr.do("align.AlignPair", func() {
		for i := 0; i < len(pairs); i += step {
			r1, r2 := aligner.AlignPair(&pairs[i])
			for _, r := range []*sam.Record{&r1, &r2} {
				if !r.Unmapped() {
					mapped++
				}
				if r.Flag&sam.FlagProperPair != 0 {
					proper++
				}
			}
			n++
		}
	})
	out["align.align_pair_us"] = d / float64(n) * 1e6
	out["align.mapped_frac"] = float64(mapped) / float64(2*n)
	out["align.proper_pair_frac"] = float64(proper) / float64(2*n)

	n = 0
	d = tr.do("align.BackwardSearch", func() {
		for i := 0; i < len(pairs); i += step {
			for _, seq := range [][]byte{pairs[i].R1.Seq, pairs[i].R2.Seq} {
				for off := 0; off+32 <= len(seq); off += 32 {
					idx.BackwardSearch(seq[off : off+32])
					n++
				}
			}
		}
	})
	out["align.backward_search_ns"] = d / float64(n) * 1e9

	flank := rt.AlignerConfig.Flank
	step = stride(len(recs), maxFitReads)
	n = 0
	d = tr.do("align.FitAlign", func() {
		for i := 0; i < len(recs); i += step {
			r := &recs[i]
			if r.Unmapped() {
				continue
			}
			window := rt.Ref.Slice(int(r.RefID), int(r.Pos)-flank, int(r.Pos)+len(r.Seq)+flank)
			align.FitAlign(r.Seq, window, rt.AlignerConfig.Scoring)
			n++
		}
	})
	out["align.fit_align_us"] = d / float64(n) * 1e6
	return nil
}

// replayPairCodec measures the FASTQ pair codec on partition-sized chunks;
// pair rates are FASTQ-text megabytes per second, seq/qual rates raw bytes.
func replayPairCodec(pairs []fastq.Pair, parts int, tr *tracer, out map[string]float64) error {
	chunks := chunksOf(pairs, parts)
	var text, packed, raw int
	var blocks, sqBlocks [][]byte
	seqs, quals := make([][][]byte, len(chunks)), make([][][]byte, len(chunks))
	for c, ps := range chunks {
		for i := range ps {
			text += ps[i].Bytes()
			seqs[c] = append(seqs[c], ps[i].R1.Seq, ps[i].R2.Seq)
			quals[c] = append(quals[c], ps[i].R1.Qual, ps[i].R2.Qual)
			raw += 2 * (len(ps[i].R1.Seq) + len(ps[i].R2.Seq))
		}
	}
	var err error
	codec := compress.GPFPairCodec{}
	d := tr.do("compress.GPFPairCodec.Marshal", func() {
		for _, ps := range chunks {
			var b []byte
			if b, err = codec.Marshal(ps); err != nil {
				return
			}
			packed += len(b)
			blocks = append(blocks, b)
		}
	})
	if err != nil {
		return err
	}
	out["compress.pair_marshal_mb_per_s"] = float64(text) / 1e6 / d
	out["compress.pair_ratio"] = compress.Ratio(text, packed)
	d = tr.do("compress.GPFPairCodec.Unmarshal", func() {
		for _, b := range blocks {
			if _, err = codec.Unmarshal(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	out["compress.pair_unmarshal_mb_per_s"] = float64(text) / 1e6 / d
	d = tr.do("compress.EncodeSeqQualBlock", func() {
		for c := range chunks {
			var b []byte
			if b, err = compress.EncodeSeqQualBlock(seqs[c], quals[c]); err != nil {
				return
			}
			sqBlocks = append(sqBlocks, b)
		}
	})
	if err != nil {
		return err
	}
	out["compress.seqqual_encode_mb_per_s"] = float64(raw) / 1e6 / d
	d = tr.do("compress.DecodeSeqQualBlock", func() {
		for _, b := range sqBlocks {
			if _, _, err = compress.DecodeSeqQualBlock(b); err != nil {
				return
			}
		}
	})
	out["compress.seqqual_decode_mb_per_s"] = float64(raw) / 1e6 / d
	return err
}

// replayColfmt measures the columnar SAM codec on partition-sized chunks;
// rates are encoded-block megabytes per second.
func replayColfmt(recs []sam.Record, parts int, tr *tracer, out map[string]float64) error {
	var blocks [][]byte
	var bytes, n int
	var err error
	codec := colfmt.Codec{}
	d := tr.do("colfmt.Codec.Marshal", func() {
		for _, rs := range chunksOf(recs, parts) {
			var b []byte
			if b, err = codec.Marshal(rs); err != nil {
				return
			}
			blocks = append(blocks, b)
			bytes += len(b)
			n += len(rs)
		}
	})
	if err != nil {
		return err
	}
	mb := float64(bytes) / 1e6
	out["colfmt.marshal_mb_per_s"] = mb / d
	out["colfmt.bytes_per_record"] = float64(bytes) / float64(n)
	decode := func(name string, c engine.Serializer[sam.Record]) float64 {
		return tr.do(name, func() {
			for _, b := range blocks {
				if _, err = c.Unmarshal(b); err != nil {
					return
				}
			}
		})
	}
	out["colfmt.unmarshal_mb_per_s"] = mb / decode("colfmt.Codec.Unmarshal", codec)
	if err != nil {
		return err
	}
	out["colfmt.unmarshal_coord_mb_per_s"] = mb / decode("colfmt.Codec.Project(coord).Unmarshal", codec.Project(colfmt.FieldCoord))
	return err
}

// replayShuffle runs a shuffle with no kernel behind it: the duplicate-group
// routing of MarkDuplicate over the records, with the runtime's codec and the
// same declared effects, then a count.
func replayShuffle(recs []sam.Record, spec childSpec, rt *core.Runtime, tr *tracer, out map[string]float64) error {
	var err error
	out["engine.shuffle_probe_s"] = tr.do("engine.PartitionBy+Count", func() {
		ctx := engine.NewContext(spec.Slots)
		ds := engine.WithCodec(engine.Parallelize(ctx, recs, spec.NumPartitions), rt.SAMCodec())
		var grouped *engine.Dataset[sam.Record]
		grouped, err = engine.PartitionBy("probe/group", ds, spec.NumPartitions,
			func(r sam.Record) int { return cleaner.GroupKey(&r) },
			engine.ReadsOnly(colfmt.FieldCoord|colfmt.FieldFlag|colfmt.FieldMate|colfmt.FieldCigar|colfmt.FieldTags))
		if err == nil {
			_, err = engine.Count("probe/count", grouped)
		}
	})
	return err
}

// replayCleaner runs the cleaner kernels in pipeline order over all records
// as one partition and returns the cleaned copy.
func replayCleaner(in []sam.Record, rt *core.Runtime, tr *tracer, out map[string]float64) []sam.Record {
	recs := append([]sam.Record(nil), in...)
	out["cleaner.sort_s"] = tr.do("cleaner.SortByCoordinate", func() { cleaner.SortByCoordinate(recs) })
	out["cleaner.markdup_s"] = tr.do("cleaner.MarkDuplicates", func() {
		out["cleaner.duplicates"] = float64(cleaner.MarkDuplicates(recs))
	})
	out["cleaner.realign_s"] = tr.do("cleaner.RealignIndels", func() {
		st := cleaner.RealignIndels(recs, rt.Ref, rt.AlignerConfig.Scoring)
		out["cleaner.realign_targets"] = float64(st.Targets)
	})
	mask := map[[2]int]bool{}
	for _, v := range rt.Known {
		if contig, ok := rt.Ref.ContigID(v.Chrom); ok {
			for off := range v.Ref {
				mask[[2]int{contig, v.Pos + off}] = true
			}
		}
	}
	known := func(contig, pos int) bool { return mask[[2]int{contig, pos}] }
	var table *cleaner.RecalTable
	out["cleaner.bqsr_count_s"] = tr.do("cleaner.BuildRecalTable", func() {
		table = cleaner.BuildRecalTable(recs, rt.Ref, known)
	})
	out["cleaner.bqsr_apply_s"] = tr.do("cleaner.ApplyRecalibration", func() {
		_ = cleaner.ApplyRecalibration(recs, table) // errors only on a nil table
	})
	return recs
}

// replayCaller times active-region detection over all records, genotyping
// over a fixed-stride sample of regions, and the pair-HMM on a fixed sample
// of reads scored against the reference window and a one-base variant of it.
func replayCaller(recs []sam.Record, rt *core.Runtime, tr *tracer, out map[string]float64) {
	cfg := rt.CallerConfig
	var ivs []genome.Interval
	out["caller.active_regions_s"] = tr.do("caller.FindActiveRegions", func() {
		ivs = caller.FindActiveRegions(recs, rt.Ref, cfg)
	})
	out["caller.active_regions"] = float64(len(ivs))
	step := stride(len(ivs), maxCallRegions)
	out["caller.call_region_s"] = tr.do("caller.CallRegion", func() {
		for i := 0; i < len(ivs); i += step {
			caller.CallRegion(recs, rt.Ref, ivs[i], cfg)
		}
	})
	step = stride(len(ivs), maxHMMRegions)
	var hmm time.Duration
	id := tr.begin("caller.PairHMMBatch")
	for i := 0; i < len(ivs); i += step {
		iv := ivs[i]
		window := rt.Ref.Slice(iv.Contig, iv.Start-cfg.RegionPad, iv.End+cfg.RegionPad)
		if len(window) == 0 {
			continue
		}
		alt := append([]byte(nil), window...)
		if mid := &alt[len(alt)/2]; *mid == 'A' {
			*mid = 'C'
		} else {
			*mid = 'A'
		}
		var reads, quals [][]byte
		for j := range recs {
			r := &recs[j]
			if len(reads) < maxHMMReads && !r.Unmapped() && int(r.RefID) == iv.Contig &&
				int(r.End()) > iv.Start && int(r.Pos) < iv.End {
				reads, quals = append(reads, r.Seq), append(quals, r.Qual)
			}
		}
		start := time.Now()
		caller.PairHMMBatch(reads, quals, [][]byte{window, alt})
		hmm += time.Since(start)
	}
	tr.end(id)
	out["caller.pairhmm_batch_s"] = hmm.Seconds()
}
