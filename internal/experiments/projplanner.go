package experiments

import (
	"fmt"
	"time"

	"github.com/gpf-go/gpf/internal/colfmt"
	"github.com/gpf-go/gpf/internal/compress"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
	"github.com/gpf-go/gpf/internal/workload"
)

// ProjPlannerRun is one mode of the decode-narrowing ablation: the
// repartitioner's census over stored partitions, with the bytes its reader
// decoded and the bytes it skipped.
type ProjPlannerRun struct {
	Mode          string // "planner", "undeclared" or "row"
	CensusWall    time.Duration
	CensusDecoded int64
	CensusPruned  int64
}

// ProjPlannerResult compares three ways of storing and reading the same
// records for the identical answer:
//
//   - planner: columnar blocks (colfmt); the census declares its reads and
//     the blocks decode through Project(mask).
//   - undeclared: columnar blocks; the same census declaring nothing, so
//     its read decodes every column.
//   - row: the row-wise field codec (core.TierField) with the declaration —
//     a codec that cannot project, so blocks are decoded whole whatever the
//     census declares.
type ProjPlannerResult struct {
	Records    int
	Buckets    int // census cardinality, identical across modes by construction
	Planner    ProjPlannerRun
	Undeclared ProjPlannerRun
	Row        ProjPlannerRun
}

// reduction is the fraction of base that got saved.
func reduction(got, base int64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(got)/float64(base)
}

// DecodeReduction is the fraction of census decode bytes the declaration
// saved relative to the undeclared run.
func (r *ProjPlannerResult) DecodeReduction() float64 {
	return reduction(r.Planner.CensusDecoded, r.Undeclared.CensusDecoded)
}

// RowDecodeReduction is the fraction of census decode bytes the planner over
// columnar blocks saved relative to the row codec.
func (r *ProjPlannerResult) RowDecodeReduction() float64 {
	return reduction(r.Planner.CensusDecoded, r.Row.CensusDecoded)
}

// ProjectionPlanner aligns the workload once and runs the three modes over
// the same records, checking that every mode produces the identical census
// before reporting byte deltas.
func ProjectionPlanner(s Scale) (*ProjPlannerResult, error) {
	d := s.dataset(workload.WGS)
	rt := s.newRuntime(engine.NewContext(s.Workers), d)
	records, err := alignAll(rt, d.Pairs)
	if err != nil {
		return nil, err
	}

	res := &ProjPlannerResult{Records: len(records)}
	var baseCensus map[int]int
	coord := []engine.StageOption{engine.ReadsOnly(colfmt.FieldCoord)}
	for _, mode := range []struct {
		name  string
		codec engine.Serializer[sam.Record]
		reads []engine.StageOption
		out   *ProjPlannerRun
	}{
		{"planner", colfmt.Codec{}, coord, &res.Planner},
		{"undeclared", colfmt.Codec{}, nil, &res.Undeclared},
		{"row", compress.FieldSAMCodec{}, coord, &res.Row},
	} {
		run, census, err := projPlannerMode(s, records, mode.codec, mode.reads)
		if err != nil {
			return nil, fmt.Errorf("projection-planner %s: %w", mode.name, err)
		}
		run.Mode = mode.name
		*mode.out = run
		if baseCensus == nil {
			baseCensus = census
			res.Buckets = len(census)
			continue
		}
		if err := sameCensus(baseCensus, census); err != nil {
			return nil, fmt.Errorf("projection-planner %s: %w", mode.name, err)
		}
	}

	// The ablation is only worth printing if the ordering holds: the planner
	// decodes less than either whole-block side.
	for _, whole := range []*ProjPlannerRun{&res.Undeclared, &res.Row} {
		if res.Planner.CensusDecoded >= whole.CensusDecoded {
			return nil, fmt.Errorf("projection-planner: planner decoded %d bytes, %s %d — decode pruning ineffective",
				res.Planner.CensusDecoded, whole.Mode, whole.CensusDecoded)
		}
	}
	return res, nil
}

// censusKey buckets records by coarse coordinate — the repartitioner's
// load-census read pattern (RefID/Pos and nothing else).
func censusKey(r sam.Record) int { return int(r.RefID)<<20 | int(r.Pos) }

// projPlannerMode stores the records as serialized partitions under codec,
// then runs the census with the given read declaration.
func projPlannerMode(s Scale, records []sam.Record, codec engine.Serializer[sam.Record], reads []engine.StageOption) (ProjPlannerRun, map[int]int, error) {
	ctx := engine.NewContext(s.Workers)
	ctx.StoreSerialized = true
	stored, err := engine.MapPartitions("projplanner/store",
		engine.Parallelize(ctx, records, s.NumPartitions), codec,
		func(_ int, items []sam.Record) ([]sam.Record, error) { return items, nil })
	if err != nil {
		return ProjPlannerRun{}, nil, err
	}
	if err := stored.Force(); err != nil {
		return ProjPlannerRun{}, nil, err
	}

	// Count records per coordinate bucket; the declaration and the codec
	// decide what the decode touches.
	ctx.ResetMetrics()
	start := time.Now()
	census, err := engine.CountByKey("projplanner/census", stored, censusKey, reads...)
	if err != nil {
		return ProjPlannerRun{}, nil, err
	}
	wall := time.Since(start)
	m := ctx.Metrics()
	return ProjPlannerRun{
		CensusWall:    wall,
		CensusDecoded: m.TotalDecodedBytes(),
		CensusPruned:  m.TotalPrunedBytes(),
	}, census, nil
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

// Format renders the three-mode table.
func (r *ProjPlannerResult) Format() []string {
	out := []string{fmt.Sprintf(
		"Projection planner: census over %d records (%d buckets)",
		r.Records, r.Buckets)}
	for _, run := range []*ProjPlannerRun{&r.Planner, &r.Undeclared, &r.Row} {
		out = append(out, row(run.Mode,
			fmt.Sprintf("decoded %7.3f MB", float64(run.CensusDecoded)/1e6),
			fmt.Sprintf("pruned %7.3f MB", float64(run.CensusPruned)/1e6),
			fmt.Sprintf("census %s", run.CensusWall.Round(time.Millisecond))))
	}
	return append(out,
		fmt.Sprintf("census decode reduction vs undeclared: %.1f%%, vs row: %.1f%%", 100*r.DecodeReduction(), 100*r.RowDecodeReduction()))
}
