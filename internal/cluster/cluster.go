// Package cluster provides a discrete-event simulator of the paper's
// evaluation platform: a multi-node cluster (240 nodes × Xeon cores, SATA
// disks, InfiniBand FDR) plus shared-filesystem models (Lustre, NFS). Tasks
// execute for real on the local machine through the engine, which records
// per-task CPU time and shuffle byte volumes; this package replays those
// traces over N simulated cores to produce the scaling curves of §5 —
// preserving task-count, task skew, serial fractions and I/O volume, which
// are the quantities that determine the shape of the paper's figures.
package cluster

import (
	"container/heap"
	"sort"
	"time"

	"github.com/gpf-go/gpf/internal/engine"
)

// DiskModel is a node-local disk (the paper: 1 TB 7200 RPM SATA).
type DiskModel struct {
	BandwidthMBps float64
	LatencyMs     float64
}

// NetworkModel is the interconnect (the paper: InfiniBand FDR).
type NetworkModel struct {
	BandwidthMBpsPerNode float64
	LatencyUs            float64
}

// Config describes the simulated cluster.
type Config struct {
	Nodes        int
	CoresPerNode int
	Disk         DiskModel
	Net          NetworkModel
}

// PaperCluster returns the evaluation platform of §5.1: 240 nodes, up to 10
// usable cores per node (memory-capped), SATA disk ~120 MB/s, FDR ~6 GB/s
// line rate of which a conservative share is usable per node.
func PaperCluster() Config {
	return Config{
		Nodes:        240,
		CoresPerNode: 10,
		Disk:         DiskModel{BandwidthMBps: 120, LatencyMs: 8},
		Net:          NetworkModel{BandwidthMBpsPerNode: 3000, LatencyUs: 2},
	}
}

// TaskWork is the replayable cost of one task.
type TaskWork struct {
	CPU        time.Duration
	ReadBytes  int64 // shuffle read (crosses network + remote disk)
	WriteBytes int64 // shuffle write (local disk)
}

// StageWork is the replayable cost of one stage.
type StageWork struct {
	Name   string
	Kind   engine.StageKind
	Tasks  []TaskWork
	Driver time.Duration // serial driver time (actions, broadcasts)
}

// Trace is an ordered list of stages (stages execute sequentially, as the
// pipeline DAG schedules them).
type Trace struct {
	Stages []StageWork
}

// TraceFromMetrics converts engine metrics into a replayable trace.
// cpuScale multiplies task CPU time and byteScale multiplies byte volumes —
// the knobs that scale a laptop-size run up to the paper's 146.9 Gbase
// dataset (scale factors cancel in speedup/efficiency curves).
func TraceFromMetrics(m engine.Metrics, cpuScale, byteScale float64) Trace {
	if cpuScale <= 0 {
		cpuScale = 1
	}
	if byteScale <= 0 {
		byteScale = 1
	}
	var tr Trace
	for _, s := range m.Stages {
		sw := StageWork{Name: s.Name, Kind: s.Kind, Driver: time.Duration(float64(s.DriverTime) * cpuScale)}
		for _, t := range s.Tasks {
			sw.Tasks = append(sw.Tasks, TaskWork{
				CPU:        time.Duration(float64(t.Wall) * cpuScale),
				ReadBytes:  int64(float64(t.ShuffleReadBytes) * byteScale),
				WriteBytes: int64(float64(t.ShuffleWriteBytes) * byteScale),
			})
		}
		tr.Stages = append(tr.Stages, sw)
	}
	return tr
}

// SplitTasks re-splits each stage's tasks into roughly factor× as many tasks,
// dividing work evenly — used to model datasets partitioned for larger
// clusters without re-running the pipeline at that partition count.
func (tr Trace) SplitTasks(factor int) Trace {
	if factor <= 1 {
		return tr
	}
	out := Trace{Stages: make([]StageWork, len(tr.Stages))}
	for i, s := range tr.Stages {
		ns := StageWork{Name: s.Name, Kind: s.Kind, Driver: s.Driver}
		for _, t := range s.Tasks {
			for j := 0; j < factor; j++ {
				ns.Tasks = append(ns.Tasks, TaskWork{
					CPU:        t.CPU / time.Duration(factor),
					ReadBytes:  t.ReadBytes / int64(factor),
					WriteBytes: t.WriteBytes / int64(factor),
				})
			}
		}
		out.Stages[i] = ns
	}
	return out
}

// StageSim is the simulated outcome of one stage.
type StageSim struct {
	Name     string
	Kind     engine.StageKind
	Start    time.Duration
	Makespan time.Duration
	CPUTime  time.Duration // summed busy core time
	DiskTime time.Duration // summed per-task disk blocked time
	NetTime  time.Duration // summed per-task network blocked time
	Bytes    int64         // total bytes moved
}

// Result is the simulated outcome of a whole trace.
type Result struct {
	Makespan time.Duration
	CPUTime  time.Duration
	DiskTime time.Duration
	NetTime  time.Duration
	Driver   time.Duration
	Stages   []StageSim
	Cores    int
}

// Options tune a simulation run.
type Options struct {
	// NoDisk zeroes disk blocked time (the "without disk" bound of the
	// blocked-time analysis, §5.3.1). NoNet likewise for the network.
	NoDisk bool
	NoNet  bool
	// DiskBlockFraction is the fraction of a task's disk transfer time that
	// actually blocks the task. Spark shuffle writes land in the OS page
	// cache and overlap with compute, so only a small fraction blocks
	// (§5.3.1 finds ≤2.7% JCT impact despite all shuffle data touching
	// disk); synchronous file-handoff pipelines (Churchill's tool chain)
	// block fully. Zero means 1.0 (fully blocking).
	DiskBlockFraction float64
	// NetBlockFraction is the analogous fraction for network transfers
	// (shuffle fetches overlap with task compute).
	NetBlockFraction float64
}

// blockFractions resolves the configured fractions with their defaults.
func (o Options) blockFractions() (disk, net float64) {
	disk, net = o.DiskBlockFraction, o.NetBlockFraction
	if disk <= 0 || disk > 1 {
		disk = 1
	}
	if net <= 0 || net > 1 {
		net = 1
	}
	return disk, net
}

// SparkOptions returns the option set modeling an in-memory engine whose
// shuffle I/O is page-cache buffered and overlapped with compute.
func SparkOptions() Options {
	return Options{DiskBlockFraction: 0.15, NetBlockFraction: 0.5}
}

// coreHeap is a min-heap of core completion times for LPT scheduling.
type coreHeap []time.Duration

func (h coreHeap) Len() int            { return len(h) }
func (h coreHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h coreHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *coreHeap) Push(x interface{}) { *h = append(*h, x.(time.Duration)) }
func (h *coreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate replays the trace on `cores` simulated cores of cfg, returning
// the makespan and resource breakdown. Task durations are CPU time plus
// disk/network blocked time derived from byte volumes and the bandwidth each
// concurrent task receives (bandwidth is shared evenly among cores per node).
func Simulate(tr Trace, cfg Config, cores int, opt Options) Result {
	if cores < 1 {
		cores = 1
	}
	maxCores := cfg.Nodes * cfg.CoresPerNode
	if cores > maxCores {
		cores = maxCores
	}
	// Nodes engaged: tasks pack densely, so the number of nodes in play is
	// ceil(cores / coresPerNode).
	nodes := (cores + cfg.CoresPerNode - 1) / cfg.CoresPerNode
	coresPerNode := float64(cores) / float64(nodes)

	// Per-task bandwidth share: a node's disk and NIC are split across its
	// active cores.
	diskBW := cfg.Disk.BandwidthMBps / coresPerNode * 1e6 // bytes/sec per task
	netBW := cfg.Net.BandwidthMBpsPerNode / coresPerNode * 1e6

	diskFrac, netFrac := opt.blockFractions()
	res := Result{Cores: cores}
	var clock time.Duration
	for _, s := range tr.Stages {
		ss := StageSim{Name: s.Name, Kind: s.Kind, Start: clock}
		durs := make([]time.Duration, len(s.Tasks))
		for i, t := range s.Tasks {
			disk := time.Duration(0)
			if !opt.NoDisk && t.WriteBytes > 0 {
				disk = time.Duration(float64(t.WriteBytes)/diskBW*diskFrac*float64(time.Second)) +
					time.Duration(cfg.Disk.LatencyMs*float64(time.Millisecond))
			}
			// Reading shuffle data touches both the network and remote disks;
			// following §5.3.1 we attribute the transfer to the network and
			// the remote read to disk at half weight (disk and network are
			// interlaced and hard to measure separately, as the paper notes).
			net := time.Duration(0)
			if t.ReadBytes > 0 {
				if !opt.NoNet {
					net = time.Duration(float64(t.ReadBytes)/netBW*netFrac*float64(time.Second)) +
						time.Duration(cfg.Net.LatencyUs*float64(time.Microsecond))
				}
				if !opt.NoDisk {
					disk += time.Duration(float64(t.ReadBytes) / diskBW * float64(time.Second) * diskFrac / 2)
				}
			}
			durs[i] = t.CPU + disk + net
			ss.CPUTime += t.CPU
			ss.DiskTime += disk
			ss.NetTime += net
			ss.Bytes += t.ReadBytes + t.WriteBytes
		}
		ss.Makespan = lptMakespan(durs, cores) + s.Driver
		clock += ss.Makespan
		res.CPUTime += ss.CPUTime
		res.DiskTime += ss.DiskTime
		res.NetTime += ss.NetTime
		res.Driver += s.Driver
		res.Stages = append(res.Stages, ss)
	}
	res.Makespan = clock
	return res
}

// lptMakespan schedules task durations onto n cores with longest-processing-
// time-first greedy assignment and returns the makespan.
func lptMakespan(durs []time.Duration, n int) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	h := make(coreHeap, n)
	heap.Init(&h)
	for _, d := range sorted {
		h[0] += d
		heap.Fix(&h, 0)
	}
	var mk time.Duration
	for _, c := range h {
		if c > mk {
			mk = c
		}
	}
	return mk
}

// Efficiency returns parallel efficiency of timeN at coresN against a
// baseline (timeBase at coresBase): (timeBase*coresBase)/(timeN*coresN).
func Efficiency(timeBase time.Duration, coresBase int, timeN time.Duration, coresN int) float64 {
	if timeN <= 0 || coresN <= 0 {
		return 0
	}
	return float64(timeBase) * float64(coresBase) / (float64(timeN) * float64(coresN))
}
