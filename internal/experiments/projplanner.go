package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/gpf-go/gpf/internal/align"
	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/workload"
)

// ProjPlannerRun is one mode of the projection-planner ablation. The census
// phase measures decode-side pruning (bytes the reader skipped in the stored
// partitions); the wire phase measures map-side shuffle pruning (bytes the
// repartition stage encoded onto the wire for a downstream consumer that
// rebuilds only coordinates and flags).
type ProjPlannerRun struct {
	Mode          string // "planner", "disabled" or "row"
	CensusWall    time.Duration
	CensusDecoded int64
	CensusPruned  int64
	WireBytes     int64 // shuffle bytes written across the repartition phase
	WireWall      time.Duration
	WireOutMask   engine.FieldMask // resolved OutMask of the shuffle stage
}

// ProjPlannerResult compares three ways of storing and reading the same
// records for the identical answer:
//
//   - planner: columnar blocks (colfmt); ops declare FieldEffects and the
//     planner infers both the decode masks and the shuffle wire masks from
//     the sink's demand.
//   - disabled: columnar blocks, Context.DisableProjectionPlanner. Every
//     read decodes every column and the wire carries whole records.
//   - row: the row-wise field codec (core.TierField) with the planner on — a
//     codec that cannot project, so blocks are stored and decoded whole
//     whatever the planner resolves.
type ProjPlannerResult struct {
	Records  int
	Buckets  int // census cardinality, identical across modes by construction
	Planner  ProjPlannerRun
	Disabled ProjPlannerRun
	Row      ProjPlannerRun
}

// reduction is the fraction of base that got saved.
func reduction(got, base int64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(got)/float64(base)
}

// WireReduction is the fraction of shuffle bytes the planner kept off the
// wire relative to the disabled run.
func (r *ProjPlannerResult) WireReduction() float64 {
	return reduction(r.Planner.WireBytes, r.Disabled.WireBytes)
}

// DecodeReduction is the fraction of census decode bytes the planner saved
// relative to the disabled run.
func (r *ProjPlannerResult) DecodeReduction() float64 {
	return reduction(r.Planner.CensusDecoded, r.Disabled.CensusDecoded)
}

// RowDecodeReduction is the fraction of census decode bytes the planner over
// columnar blocks saved relative to the row codec.
func (r *ProjPlannerResult) RowDecodeReduction() float64 {
	return reduction(r.Planner.CensusDecoded, r.Row.CensusDecoded)
}

// ProjectionPlanner aligns the workload once and runs the three modes over
// the same records, checking that every mode produces the identical census
// and the identical projected records before reporting byte deltas.
func ProjectionPlanner(s Scale) (*ProjPlannerResult, error) {
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(d)
	idx, err := rt.Index()
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx, rt.AlignerConfig)
	records := make([]sam.Record, 0, 2*len(d.Pairs))
	for i := range d.Pairs {
		r1, r2 := aligner.AlignPair(&d.Pairs[i])
		records = append(records, r1, r2)
	}

	res := &ProjPlannerResult{Records: len(records)}
	var baseCensus map[int]int
	var baseProj []sam.Record
	for _, mode := range []struct {
		name    string
		codec   engine.Serializer[sam.Record]
		disable bool
		out     *ProjPlannerRun
	}{
		{"planner", colfmt.Codec{}, false, &res.Planner},
		{"disabled", colfmt.Codec{}, true, &res.Disabled},
		{"row", compress.FieldSAMCodec{}, false, &res.Row},
	} {
		run, census, projected, err := projPlannerMode(s, records, mode.codec, mode.disable)
		if err != nil {
			return nil, fmt.Errorf("projection-planner %s: %w", mode.name, err)
		}
		run.Mode = mode.name
		*mode.out = run
		if baseCensus == nil {
			baseCensus, baseProj = census, projected
			res.Buckets = len(census)
			continue
		}
		if err := sameCensus(baseCensus, census); err != nil {
			return nil, fmt.Errorf("projection-planner %s: %w", mode.name, err)
		}
		if err := sameProjected(baseProj, projected); err != nil {
			return nil, fmt.Errorf("projection-planner %s: %w", mode.name, err)
		}
	}

	// The ablation is only worth printing if the orderings hold: the planner
	// decodes less than either whole-block side and narrows the wire.
	for _, whole := range []*ProjPlannerRun{&res.Disabled, &res.Row} {
		if res.Planner.CensusDecoded >= whole.CensusDecoded {
			return nil, fmt.Errorf("projection-planner: planner decoded %d bytes, %s %d — decode pruning ineffective",
				res.Planner.CensusDecoded, whole.Mode, whole.CensusDecoded)
		}
	}
	if res.Planner.WireBytes >= res.Disabled.WireBytes {
		return nil, fmt.Errorf("projection-planner: planner shuffled %d wire bytes, disabled %d — wire pruning ineffective",
			res.Planner.WireBytes, res.Disabled.WireBytes)
	}
	return res, nil
}

// censusKey buckets records by coarse coordinate — the repartitioner's
// load-census read pattern (RefID/Pos and nothing else).
func censusKey(r sam.Record) int { return int(r.RefID)<<20 | int(r.Pos) }

// projPlannerMode stores the records as serialized partitions under codec,
// then runs the census phase and the wire phase under one mode's
// configuration.
func projPlannerMode(s Scale, records []sam.Record, codec engine.Serializer[sam.Record], disablePlanner bool) (ProjPlannerRun, map[int]int, []sam.Record, error) {
	ctx := engine.NewContext(s.Workers)
	ctx.StoreSerialized = true
	ctx.DisableProjectionPlanner = disablePlanner
	stored, err := engine.MapPartitions("projplanner/store",
		engine.Parallelize(ctx, records, s.NumPartitions), codec,
		func(_ int, items []sam.Record) ([]sam.Record, error) { return items, nil },
		engine.ReadsOnly(0))
	if err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	if err := stored.Force(); err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	var run ProjPlannerRun

	// Census phase: count records per coordinate bucket. Every mode declares
	// the read; the planner (or its absence) and the codec decide what the
	// decode touches.
	ctx.ResetMetrics()
	start := time.Now()
	census, err := engine.CountByKey("projplanner/census", stored, censusKey,
		engine.ReadsOnly(colfmt.FieldCoord))
	if err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	run.CensusWall = time.Since(start)
	m := ctx.Metrics()
	run.CensusDecoded = m.TotalDecodedBytes()
	run.CensusPruned = m.TotalPrunedBytes()

	// Wire phase: repartition by coordinate, then rebuild only coordinates
	// and flags. Under the planner the Rebuilds demand flows backwards
	// through the shuffle, so map tasks encode two columns onto the wire;
	// without it, or with a codec that cannot project, the wire carries whole
	// records.
	ctx.ResetMetrics()
	start = time.Now()
	shuffled, err := engine.PartitionBy("projplanner/repart", stored, s.NumPartitions,
		censusKey, engine.ReadsOnly(colfmt.FieldCoord))
	if err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	projected, err := engine.Map("projplanner/strip", shuffled, codec,
		func(r sam.Record) sam.Record {
			return sam.Record{RefID: r.RefID, Pos: r.Pos, Flag: r.Flag}
		}, engine.Rebuilds(colfmt.FieldCoord|colfmt.FieldFlag))
	if err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	out, err := engine.Collect("projplanner/collect", projected)
	if err != nil {
		return ProjPlannerRun{}, nil, nil, err
	}
	run.WireWall = time.Since(start)
	m = ctx.Metrics()
	for i := range m.Stages {
		st := &m.Stages[i]
		if w := st.ShuffleWriteBytes(); w > 0 {
			run.WireBytes += w
			run.WireOutMask = st.OutMask
		}
	}
	return run, census, out, nil
}

// sameCensus checks two census maps for equality.
func sameCensus(a, b map[int]int) error {
	if len(a) != len(b) {
		return fmt.Errorf("census cardinality diverged: %d vs %d buckets", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("census bucket %d diverged: %d vs %d", k, v, b[k])
		}
	}
	return nil
}

// sameProjected checks that two projected outputs hold the same multiset of
// (RefID, Pos, Flag) triples. Shuffle bucket order is backend-deterministic
// but not part of the contract this experiment verifies, so both sides are
// sorted before comparison.
func sameProjected(a, b []sam.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("projected output diverged: %d vs %d records", len(a), len(b))
	}
	key := func(r sam.Record) uint64 {
		return uint64(uint32(r.RefID))<<33 | uint64(uint32(r.Pos))<<16 | uint64(r.Flag)
	}
	ka := make([]uint64, len(a))
	kb := make([]uint64, len(b))
	for i := range a {
		ka[i], kb[i] = key(a[i]), key(b[i])
	}
	sort.Slice(ka, func(i, j int) bool { return ka[i] < ka[j] })
	sort.Slice(kb, func(i, j int) bool { return kb[i] < kb[j] })
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Errorf("projected record %d diverged: %#x vs %#x", i, ka[i], kb[i])
		}
	}
	return nil
}

// Format renders the three-mode table.
func (r *ProjPlannerResult) Format() []string {
	out := []string{fmt.Sprintf(
		"Projection planner: census + repartition over %d records (%d buckets)",
		r.Records, r.Buckets)}
	for _, run := range []*ProjPlannerRun{&r.Planner, &r.Disabled, &r.Row} {
		out = append(out, row(run.Mode,
			fmt.Sprintf("decoded %7.3f MB", float64(run.CensusDecoded)/1e6),
			fmt.Sprintf("pruned %7.3f MB", float64(run.CensusPruned)/1e6),
			fmt.Sprintf("wire %7.3f MB", float64(run.WireBytes)/1e6),
			fmt.Sprintf("wire mask %#x", uint64(run.WireOutMask)),
			fmt.Sprintf("census %s", run.CensusWall.Round(time.Millisecond))))
	}
	out = append(out,
		fmt.Sprintf("census decode reduction vs disabled: %.1f%%, vs row: %.1f%%", 100*r.DecodeReduction(), 100*r.RowDecodeReduction()),
		fmt.Sprintf("shuffle wire reduction vs disabled: %.1f%%", 100*r.WireReduction()))
	return out
}
