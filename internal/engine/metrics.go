package engine

import "time"

// StageKind classifies a stage for the metrics consumers.
type StageKind int

// Stage kinds. Shuffle stages move data between partitions; narrow stages
// transform partitions in place; action stages return data to the driver.
const (
	StageNarrow StageKind = iota
	StageShuffle
	StageAction
)

// String names the stage kind.
func (k StageKind) String() string {
	switch k {
	case StageShuffle:
		return "shuffle"
	case StageAction:
		return "action"
	default:
		return "narrow"
	}
}

// TaskMetrics records one task's execution.
type TaskMetrics struct {
	Partition int
	// Wall is the task's elapsed time, filled by the stage runner. No task
	// waits on another rank (that wait is the stage's FetchWait), so Wall is
	// a CPU-time proxy for the trace replay.
	Wall              time.Duration
	SerializeTime     time.Duration // time spent in codec calls
	ShuffleReadBytes  int64
	ShuffleWriteBytes int64
	InputItems        int
	// OutputItems counts the records the task produced. A shuffle's reduce
	// keeps its fetched blocks without decoding them, so it reports 0: the
	// stage that reads the result counts the records as its InputItems.
	OutputItems int
	// DecodedBytes counts serialized bytes this task actually decoded —
	// block headers plus the columns its projection mask selected (whole
	// blocks for non-columnar codecs).
	DecodedBytes int64
	// PrunedBytes counts serialized bytes skipped via projection pushdown:
	// columns the op's declared read mask excluded, left untouched by the
	// columnar decoder. Always zero for non-projectable codecs.
	PrunedBytes int64
	// Ran marks a task this process actually executed. Under a multi-process
	// executor each rank records zero-valued placeholders for the tasks its
	// siblings own; MergeRanks uses the flag to splice every task's record
	// from the rank that ran it. Always false on single-process runs (there
	// is nothing to merge).
	Ran bool
	// Rank is the process that executed the task (meaningful only when Ran).
	Rank int
}

// StageMetrics records one stage: a row per task, and what this rank's
// driver did around them — its serial step, its wait on peers and the heap
// the stage left.
type StageMetrics struct {
	ID   int
	Name string
	Kind StageKind
	// FusedOps is the number of narrow operations fused into this stage by
	// the lineage planner (0 for stages that never went through the planner:
	// shuffles and actions). The stage Name joins the fused op names with "+"
	// in execution order.
	FusedOps int
	Tasks    []TaskMetrics
	// GCPause is the delta of runtime GC pause time observed across the
	// stage (driver-wide, attributed to the stage that triggered it).
	GCPause time.Duration
	// DriverTime is serial time spent on the driver (actions, broadcast).
	DriverTime time.Duration
	// FetchWait is the time this rank's driver waited on its peers' blocks
	// before the stage's work could go on: for a shuffle's reduce row, the
	// wait before its tasks start; for an action, the allgather wait after
	// them. Zero in one process. Merged across ranks it is the sum.
	FetchWait time.Duration
	// HeapBytes is this process's heap occupied by objects when the stage
	// ended (after its driver step), sampled through runtime/metrics without
	// forcing a collection: what the stage's output and everything still
	// referenced hold, plus garbage not yet swept. Merged across ranks it is
	// the largest rank's.
	HeapBytes int64
}

// ShuffleReadBytes sums shuffle-read bytes across tasks.
func (s *StageMetrics) ShuffleReadBytes() int64 {
	var n int64
	for i := range s.Tasks {
		n += s.Tasks[i].ShuffleReadBytes
	}
	return n
}

// ShuffleWriteBytes sums shuffle-write bytes across tasks.
func (s *StageMetrics) ShuffleWriteBytes() int64 {
	var n int64
	for i := range s.Tasks {
		n += s.Tasks[i].ShuffleWriteBytes
	}
	return n
}

// DecodedBytes sums decoded serialized bytes across tasks.
func (s *StageMetrics) DecodedBytes() int64 {
	var n int64
	for i := range s.Tasks {
		n += s.Tasks[i].DecodedBytes
	}
	return n
}

// PrunedBytes sums projection-skipped serialized bytes across tasks.
func (s *StageMetrics) PrunedBytes() int64 {
	var n int64
	for i := range s.Tasks {
		n += s.Tasks[i].PrunedBytes
	}
	return n
}

// TaskTime sums task wall time (the "core time" of the stage).
func (s *StageMetrics) TaskTime() time.Duration {
	var d time.Duration
	for i := range s.Tasks {
		d += s.Tasks[i].Wall
	}
	return d
}

// MaxTaskTime returns the slowest task's wall time (stage critical path under
// unlimited parallelism).
func (s *StageMetrics) MaxTaskTime() time.Duration {
	var d time.Duration
	for i := range s.Tasks {
		if s.Tasks[i].Wall > d {
			d = s.Tasks[i].Wall
		}
	}
	return d
}

// SerializeTime sums codec time across tasks.
func (s *StageMetrics) SerializeTime() time.Duration {
	var d time.Duration
	for i := range s.Tasks {
		d += s.Tasks[i].SerializeTime
	}
	return d
}

// Metrics aggregates all stages of a session.
type Metrics struct {
	Stages []StageMetrics
}

func (m Metrics) clone() Metrics {
	out := Metrics{Stages: make([]StageMetrics, len(m.Stages))}
	copy(out.Stages, m.Stages)
	for i := range out.Stages {
		out.Stages[i].Tasks = append([]TaskMetrics(nil), m.Stages[i].Tasks...)
	}
	return out
}

// NumStages returns the stage count (Table 4's "Stage Num" row).
func (m Metrics) NumStages() int { return len(m.Stages) }

// MergeRanks merges the metrics of sibling SPMD ranks into this (rank 0)
// snapshot. All ranks of a job run the same deterministic driver program, so
// they record the same stage sequence with the same task counts; each task's
// record is taken from the rank whose Ran flag says it executed the task,
// and per-process GC pause deltas and fetch waits are summed into cluster
// totals; HeapBytes keeps the largest rank's value, the one that bounds a
// node's memory.
// DriverTime, measured identically everywhere, keeps rank 0's value.
func (m Metrics) MergeRanks(others ...Metrics) Metrics {
	out := m.clone()
	for _, o := range others {
		for i := range out.Stages {
			if i >= len(o.Stages) {
				break
			}
			ls, os := &out.Stages[i], &o.Stages[i]
			for j := range ls.Tasks {
				if j < len(os.Tasks) && !ls.Tasks[j].Ran && os.Tasks[j].Ran {
					ls.Tasks[j] = os.Tasks[j]
				}
			}
			ls.GCPause += os.GCPause
			ls.FetchWait += os.FetchWait
			ls.HeapBytes = max(ls.HeapBytes, os.HeapBytes)
		}
	}
	return out
}

// TotalShuffleBytes sums read+write shuffle bytes over all stages (Table 4's
// "Shuffle Data" row counts data moved through the shuffle).
func (m Metrics) TotalShuffleBytes() int64 {
	var n int64
	for i := range m.Stages {
		n += m.Stages[i].ShuffleWriteBytes() + m.Stages[i].ShuffleReadBytes()
	}
	return n
}

// TotalShuffleTime sums the task time of shuffle stages, the engine-side
// proxy for Table 4's "Shuffle Time". The map side's bucketing and encode are
// inside those tasks; the bucket decode is not, since it runs in the task of
// the stage that reads the shuffle's result.
func (m Metrics) TotalShuffleTime() time.Duration {
	var d time.Duration
	for i := range m.Stages {
		if m.Stages[i].Kind == StageShuffle {
			d += m.Stages[i].TaskTime()
		}
	}
	return d
}

// TotalTaskTime sums task wall time over all stages (core-hours measure).
func (m Metrics) TotalTaskTime() time.Duration {
	var d time.Duration
	for i := range m.Stages {
		d += m.Stages[i].TaskTime()
	}
	return d
}

// TotalDecodedBytes sums decoded serialized bytes over all stages.
func (m Metrics) TotalDecodedBytes() int64 {
	var n int64
	for i := range m.Stages {
		n += m.Stages[i].DecodedBytes()
	}
	return n
}

// TotalPrunedBytes sums projection-skipped bytes over all stages.
func (m Metrics) TotalPrunedBytes() int64 {
	var n int64
	for i := range m.Stages {
		n += m.Stages[i].PrunedBytes()
	}
	return n
}

// TotalGCPause sums observed GC pause deltas (Table 4's "GC Time").
func (m Metrics) TotalGCPause() time.Duration {
	var d time.Duration
	for i := range m.Stages {
		d += m.Stages[i].GCPause
	}
	return d
}

// TotalFusedOps sums fused narrow-op counts over all stages — the number of
// logical narrow operations the planner collapsed into fused stages.
func (m Metrics) TotalFusedOps() int {
	n := 0
	for i := range m.Stages {
		n += m.Stages[i].FusedOps
	}
	return n
}

// TotalFetchWait sums the stages' FetchWait — the analogue of Spark's
// fetch-wait metric that the §5.3 blocked-time analysis attributes separately
// from task CPU time. It is ranks waiting on their peers' shuffle buckets and
// allgather blobs, so it is zero in one process.
func (m Metrics) TotalFetchWait() time.Duration {
	var d time.Duration
	for i := range m.Stages {
		d += m.Stages[i].FetchWait
	}
	return d
}

// TotalPipelineOverlap returns 0: a shuffle runs its maps, then its reduces,
// so no reduce overlaps a map. It is kept because bench/child.go reads it.
func (m Metrics) TotalPipelineOverlap() time.Duration { return 0 }

// TotalDriverTime sums serial driver time.
func (m Metrics) TotalDriverTime() time.Duration {
	var d time.Duration
	for i := range m.Stages {
		d += m.Stages[i].DriverTime
	}
	return d
}
