package baseline

import (
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

// Step is a Cleaner Process of the WGS pipeline that a panel of Fig 11 times
// on its own.
type Step int

// The Cleaner steps of Fig 11.
const (
	MarkDuplicate Step = iota
	IndelRealign
	BaseRecalibration
)

// String is the name the step's Process runs under in the WGS pipeline.
func (s Step) String() string {
	switch s {
	case IndelRealign:
		return "IndelRealign"
	case BaseRecalibration:
		return "BaseRecalibration"
	default:
		return "MarkDuplicate"
	}
}

// process builds the step's core Process from in to out.
func (s Step) process(info *core.PartitionInfoBundle, in, out *core.SAMBundle) core.Process {
	switch s {
	case IndelRealign:
		return core.NewIndelRealignProcess(s.String(), info, in, out)
	case BaseRecalibration:
		return core.NewBaseRecalibrationProcess(s.String(), info, in, out)
	default:
		return core.NewMarkDuplicateProcess(s.String(), in, out)
	}
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

// RunStage executes one Cleaner step under the style and returns the engine
// metrics of just this stage (a Fig 11 measurement). It runs the pipeline's
// own Process on a copy of rt whose codec is the style's, between the style's
// conversions in and out, and materializes the flat result. A partition step
// reads a PartitionInfo of rt.PartitionLen as built, with no census: the
// stage is timed without the dynamic split.
func RunStage(rt *core.Runtime, records []sam.Record, style StageStyle, step Step) (engine.Metrics, error) {
	rt.Engine.ResetMetrics()
	srt := *rt
	srt.Codec = style.Codec
	sys := style.System.String()
	ds := engine.WithCodec(engine.Parallelize(rt.Engine, records, rt.NumPartitions), srt.SAMCodec())
	ds, err := convertStage(style, sys+"/convert-in", ds)
	if err != nil {
		return engine.Metrics{}, err
	}
	info, err := core.NewPartitionInfo(rt.Ref.Lengths(), rt.PartitionLen)
	if err != nil {
		return engine.Metrics{}, err
	}
	// A Process reads its inputs' data; only a Pipeline looks at their state.
	infoIn := core.UndefinedPartitionInfo("partitionInfo")
	infoIn.Info = info
	out := core.UndefinedSAM("out", nil)
	if err := step.process(infoIn, core.DefinedSAM("in", nil, ds), out).Run(&srt); err != nil {
		return engine.Metrics{}, err
	}
	flat, err := out.EnsureFlat(&srt)
	if err != nil {
		return engine.Metrics{}, err
	}
	if flat, err = convertStage(style, sys+"/convert-out", flat); err != nil {
		return engine.Metrics{}, err
	}
	if _, err := engine.Count(sys+"/materialize", flat); err != nil {
		return engine.Metrics{}, err
	}
	return rt.Engine.Metrics(), nil
}
