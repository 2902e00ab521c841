package baseline

import (
	"github.com/gpf-go/gpf/internal/cleaner"
	"github.com/gpf-go/gpf/internal/core"
	"github.com/gpf-go/gpf/internal/engine"
	"github.com/gpf-go/gpf/internal/sam"
)

// StageStyle captures how a comparator executes one pipeline stage: which
// serializer tier it shuffles through, and whether it converts records
// into its own storage format before and after the stage (ADAM's
// SAM→columnar conversion; Persona's SAM→AGD).
type StageStyle struct {
	System  System
	Codec   core.CodecTier
	Convert bool
}

// StyleGPF runs the stage the GPF way: genomic codec, no conversion.
func StyleGPF() StageStyle { return StageStyle{System: GPF, Codec: core.TierGPF} }

// StyleADAM runs the stage ADAM-style: generic serialization plus format
// conversion on entry and exit.
func StyleADAM() StageStyle { return StageStyle{System: ADAM, Codec: core.TierGob, Convert: true} }

// StyleGATK4 runs the stage GATK4-Spark-style: generic serialization, no
// extra conversion.
func StyleGATK4() StageStyle { return StageStyle{System: GATK4, Codec: core.TierGob} }

// StylePersona runs the stage Persona-style: field packing into the AGD-like
// layout with conversion on entry and exit.
func StylePersona() StageStyle {
	return StageStyle{System: Persona, Codec: core.TierField, Convert: true}
}

// convertStage round-trips every partition through the generic serializer —
// the cost of materializing another framework's on-memory format. Styles
// that do not convert get ds back.
func convertStage(style StageStyle, name string, ds *engine.Dataset[sam.Record]) (*engine.Dataset[sam.Record], error) {
	if !style.Convert {
		return ds, nil
	}
	gob := engine.GobCodec[sam.Record]{}
	return engine.MapPartitions(name, ds, ds.Codec(), func(_ int, recs []sam.Record) ([]sam.Record, error) {
		blob, err := gob.Marshal(recs)
		if err != nil {
			return nil, err
		}
		return gob.Unmarshal(blob)
	})
}

// positionKey partitions mapped records by coarse genomic position.
func positionKey(r sam.Record) int {
	if r.RefID < 0 {
		return 0
	}
	return int(r.RefID)<<16 | int(r.Pos)>>16
}

// runStage is the skeleton the Fig 11 stage measurements share: reset the
// metrics, attach the style's codec, convert in, shuffle by key (the shuffle
// row is named after shuffle), run body over the shuffled partitions, convert
// out and materialize. It returns the engine metrics of just this stage; sys,
// the style's name, prefixes every stage row.
func runStage(rt *core.Runtime, records []sam.Record, style StageStyle, shuffle string, key func(sam.Record) int,
	body func(sys string, grouped *engine.Dataset[sam.Record]) (*engine.Dataset[sam.Record], error)) (engine.Metrics, error) {
	rt.Engine.ResetMetrics()
	sys := style.System.String()
	ds := engine.WithCodec(engine.Parallelize(rt.Engine, records, rt.NumPartitions), style.Codec.SAMCodec())
	ds, err := convertStage(style, sys+"/convert-in", ds)
	if err != nil {
		return engine.Metrics{}, err
	}
	grouped, err := engine.PartitionBy(sys+"/"+shuffle, ds, rt.NumPartitions, key)
	if err != nil {
		return engine.Metrics{}, err
	}
	out, err := body(sys, grouped)
	if err != nil {
		return engine.Metrics{}, err
	}
	if out, err = convertStage(style, sys+"/convert-out", out); err != nil {
		return engine.Metrics{}, err
	}
	if _, err := engine.Count(sys+"/materialize", out); err != nil {
		return engine.Metrics{}, err
	}
	return rt.Engine.Metrics(), nil
}

// mutateStage runs fn over a private copy of every partition (dataset
// partitions are immutable; the cleaner kernels work in place).
func mutateStage(name string, ds *engine.Dataset[sam.Record], fn func([]sam.Record) error) (*engine.Dataset[sam.Record], error) {
	return engine.MapPartitions(name, ds, ds.Codec(), func(_ int, recs []sam.Record) ([]sam.Record, error) {
		out := append([]sam.Record(nil), recs...)
		return out, fn(out)
	})
}

// RunMarkDupStage executes the duplicate-marking stage under the style and
// returns the engine metrics of just this stage (the Fig 11(a) measurement).
func RunMarkDupStage(rt *core.Runtime, records []sam.Record, style StageStyle) (engine.Metrics, error) {
	return runStage(rt, records, style, "group", func(r sam.Record) int { return cleaner.GroupKey(&r) },
		func(sys string, grouped *engine.Dataset[sam.Record]) (*engine.Dataset[sam.Record], error) {
			return mutateStage(sys+"/mark", grouped, func(recs []sam.Record) error {
				cleaner.SortByCoordinate(recs)
				cleaner.MarkDuplicates(recs)
				return nil
			})
		})
}

// RunRealignStage executes indel realignment under the style (Fig 11(c)).
func RunRealignStage(rt *core.Runtime, records []sam.Record, style StageStyle) (engine.Metrics, error) {
	sc := rt.AlignerConfig.Scoring
	return runStage(rt, records, style, "partition", positionKey,
		func(sys string, grouped *engine.Dataset[sam.Record]) (*engine.Dataset[sam.Record], error) {
			return mutateStage(sys+"/realign", grouped, func(recs []sam.Record) error {
				cleaner.RealignIndels(recs, rt.Ref, sc)
				return nil
			})
		})
}

// RunBQSRStage executes base recalibration under the style (Fig 11(b)),
// including the serial collect+broadcast step.
func RunBQSRStage(rt *core.Runtime, records []sam.Record, style StageStyle) (engine.Metrics, error) {
	return runStage(rt, records, style, "partition", positionKey,
		func(sys string, grouped *engine.Dataset[sam.Record]) (*engine.Dataset[sam.Record], error) {
			tables, err := engine.MapPartitions(sys+"/count-covariates", grouped, nil,
				func(_ int, recs []sam.Record) ([]*cleaner.RecalTable, error) {
					return []*cleaner.RecalTable{cleaner.BuildRecalTable(recs, rt.Ref, nil)}, nil
				})
			if err != nil {
				return nil, err
			}
			merged, found, err := engine.Reduce(sys+"/collect", tables,
				func(a, b *cleaner.RecalTable) *cleaner.RecalTable { return a.Merge(b) })
			if err != nil {
				return nil, err
			}
			if !found {
				merged = &cleaner.RecalTable{}
			}
			bc := engine.NewBroadcast(rt.Engine, sys+"/broadcast-mask", merged, merged.SizeBytes())
			return mutateStage(sys+"/apply", grouped, func(recs []sam.Record) error {
				return cleaner.ApplyRecalibration(recs, bc.Value)
			})
		})
}
