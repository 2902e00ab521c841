package main

// The benchmark's fixed vocabulary: workloads, input sizes and metrics. The
// tier-1 test checks that BENCHMARK.json at the repository root names exactly
// these workloads and metrics with the same units, directions and bounds, so
// the program and the file cannot drift apart.

// workloadDef is one file-in/file-out pipeline and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"wgs", "FASTQ pair + FASTA + known VCF -> VCF at 100 kb/15x: the paper's headline; aligner is about 3/4 of task time, engine+codec a few percent"},
	{"cleaner", "pre-aligned SAM (100 kb/30x) -> MarkDuplicate..BQSR -> SAM: aligner and caller never run, so shuffle, codec and cleaner kernels show"},
	{"cleaner-ser", "cleaner with Context.StoreSerialized (paper 4.2 MEMORY_ONLY_SER): codec at rest and at every stage boundary; trades wall for retained heap"},
	{"cleaner-mproc", "cleaner as an mproc job over the loopback TCP mesh: the only workload where frames, handshake and cross-rank fetch-wait work"},
	{"caller", "recalibrated SAM -> ReadRepartitioner -> HaplotypeCaller -> VCF: assembly and pair-HMM dominate; aligner and cleaner kernels bypassed"},
}

// sizing fixes the input scale. The dataset of a run is
// workload.DefaultProfile(WGS, GenomeLen) at the given coverage (see gen.go).
type sizing struct {
	GenomeLen     int
	HotspotFactor float64 // coverage multiplier inside the two 2 kb hotspots
	WGSCoverage   float64 // wgs reads
	CleanCoverage float64 // pre-aligned reads of the cleaner family and caller
	NumPartitions int
	PartitionLen  int
	// Accuracy floors: a run whose calls score below them counts as failed.
	// They sit under the lowest value seen over seeds 1..40 (the truth set has
	// ~120 variants, so one miss is 0.8 points); the tight gate is the bound
	// on the precision and recall medians.
	PrecisionFloor, RecallFloor float64
}

// fullSizing is what BENCHMARK.json's numbers are measured at. It is set by
// the driver's budget (4 + 22 x 5 runs, set-up included, inside 3420 s on two
// cores): the issue's 1 Mb sizing would take 6 min per pass.
var fullSizing = sizing{GenomeLen: 100_000, HotspotFactor: 10, WGSCoverage: 15, CleanCoverage: 30, NumPartitions: 16, PartitionLen: 3_000,
	PrecisionFloor: 0.90, RecallFloor: 0.85}

// testSizing keeps the tier-1 test under 15 s; 6x is too shallow for floors.
var testSizing = sizing{GenomeLen: 20_000, HotspotFactor: 10, WGSCoverage: 6, CleanCoverage: 6, NumPartitions: 8, PartitionLen: 2_000}

// metricDef is one reported metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen (0 for per-layer metrics, which are
// not gated). Moves names the end-to-end metric a layer metric should move and
// where; elsewhere the prediction is no change.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// The time bounds are the contract's ceiling, not a wish: on the 2-core
// firecracker box this was sized on, the machine's speed drifts by 10-15%
// over minutes (cpu_s moves with wall_s), so medians of ten runs taken ten
// minutes apart differ by that much with no change at all. Heap and accuracy
// repeat to a fraction of a percent and are gated tightly.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "retained_heap_mb", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "precision", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "recall", Unit: "ratio", Better: "higher", Bound: 0.08},
}

var perLayer = []metricDef{
	// From the timed traced pass: spans around the harness's calls and the
	// engine's own counters. Shares are zero on workloads that bypass a layer.
	{Name: "run.text_io_share", Unit: "ratio", Better: "lower", Moves: "wall_s on cleaner family and caller (driver-serial parse/print); <2% on wgs"},
	{Name: "genome.read_fasta_s", Unit: "s", Better: "lower", Moves: "wall_s everywhere (<1%)"},
	{Name: "vcf.io_s", Unit: "s", Better: "lower", Moves: "wall_s on wgs, caller (<1%)"},
	{Name: "core.load_s", Unit: "s", Better: "lower", Moves: "wall_s everywhere"},
	{Name: "core.pipeline_run_s", Unit: "s", Better: "lower", Moves: "wall_s everywhere"},
	{Name: "core.collect_s", Unit: "s", Better: "lower", Moves: "wall_s everywhere (lazy narrow stages run here)"},
	{Name: "core.partitions", Unit: "count", Better: "higher", Moves: "cluster.sim2048_min; not wall_s on 2 cores"},
	{Name: "core.stages_executed", Unit: "count", Better: "lower", Moves: "none (invariant: Processes run)"},
	{Name: "align.task_share", Unit: "ratio", Better: "lower", Moves: "wall_s, cpu_s on wgs only (zero elsewhere)"},
	{Name: "cleaner.task_share", Unit: "ratio", Better: "lower", Moves: "wall_s, cpu_s on cleaner family; ~5% on wgs; zero on caller"},
	{Name: "caller.task_share", Unit: "ratio", Better: "lower", Moves: "wall_s, cpu_s on caller; ~15% on wgs; zero on cleaner family"},
	{Name: "engine.serialize_share", Unit: "ratio", Better: "lower", Moves: "wall_s, cpu_s on cleaner family, most on cleaner-ser; <=5% on wgs"},
	{Name: "engine.task_s", Unit: "s", Better: "lower", Moves: "cpu_s everywhere"},
	{Name: "engine.serialize_s", Unit: "s", Better: "lower", Moves: "wall_s, cpu_s on cleaner family"},
	{Name: "engine.shuffle_mb", Unit: "MB", Better: "lower", Moves: "wall_s on cleaner-mproc (wire)"},
	{Name: "engine.decoded_mb", Unit: "MB", Better: "lower", Moves: "cpu_s on cleaner-ser"},
	{Name: "engine.pruned_mb", Unit: "MB", Better: "higher", Moves: "cpu_s on cleaner-ser"},
	{Name: "engine.fetch_wait_share", Unit: "ratio", Better: "lower", Moves: "wall_s on cleaner-mproc (reduce tasks blocked on a bucket, over engine.task_s)"},
	{Name: "engine.driver_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "engine.pipeline_overlap_share", Unit: "ratio", Better: "higher", Moves: "wall_s on cleaner family (map/reduce overlap over engine.task_s; zero on cleaner-mproc, one slot per rank)"},
	{Name: "engine.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "engine.stages", Unit: "count", Better: "lower", Moves: "wall_s on cleaner family (per-stage overhead)"},
	{Name: "engine.tasks", Unit: "count", Better: "lower", Moves: "wall_s on cleaner family (per-task overhead)"},
	{Name: "engine.fused_ops", Unit: "count", Better: "higher", Moves: "wall_s on cleaner family"},
	{Name: "engine.straggler_ratio", Unit: "ratio", Better: "lower", Moves: "cluster.sim2048_min; not wall_s on 2 cores"},
	{Name: "engine.resident_mb", Unit: "MB", Better: "lower", Moves: "retained_heap_mb on cleaner-ser"},
	{Name: "mproc.run_share", Unit: "ratio", Better: "lower", Moves: "wall_s on cleaner-mproc only (zero elsewhere)"},
	{Name: "cluster.sim2048_min", Unit: "min", Better: "lower", Moves: "none here (simulated; reported, not gated)"},
	{Name: "cluster.sim128_min", Unit: "min", Better: "lower", Moves: "none here (simulated; reported, not gated)"},
	{Name: "cluster.efficiency_2048", Unit: "ratio", Better: "higher", Moves: "none here (simulated; reported, not gated)"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none (too noisy to gate; see retained_heap_mb)"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower", Moves: "cpu_s via GC, most on cleaner-ser"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower", Moves: "cpu_s on cleaner-ser"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "wall_s on cleaner-ser"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "cpu_s on cleaner-ser"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none (traced pass vs median untraced wall_s)"},

	// From the replay: each module's exported functions, single-threaded, on
	// the workload's own reads. What a module costs is reported on every
	// workload; it moves an end-to-end metric only where the share above is
	// not zero.
	{Name: "fastq.read_pairs_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on wgs (<2%)"},
	{Name: "sam.read_text_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on cleaner family and caller (driver-serial)"},
	{Name: "sam.write_text_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on cleaner family (driver-serial)"},
	{Name: "align.build_index_s", Unit: "s", Better: "lower", Moves: "wall_s on wgs (serial); setup_s on the others"},
	{Name: "align.align_pair_us", Unit: "us", Better: "lower", Moves: "wall_s, cpu_s on wgs; setup_s on the others"},
	{Name: "align.backward_search_ns", Unit: "ns", Better: "lower", Moves: "wall_s, cpu_s on wgs"},
	{Name: "align.fit_align_us", Unit: "us", Better: "lower", Moves: "wall_s, cpu_s on wgs; cleaner.realign_s"},
	{Name: "align.mapped_frac", Unit: "ratio", Better: "higher", Moves: "recall on wgs"},
	{Name: "align.proper_pair_frac", Unit: "ratio", Better: "higher", Moves: "recall on wgs"},
	{Name: "compress.pair_marshal_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on wgs (small)"},
	{Name: "compress.pair_unmarshal_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on wgs (small)"},
	{Name: "compress.pair_ratio", Unit: "ratio", Better: "higher", Moves: "retained_heap_mb on wgs (small)"},
	{Name: "compress.seqqual_encode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on wgs (small)"},
	{Name: "compress.seqqual_decode_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s on wgs (small)"},
	{Name: "colfmt.marshal_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s, cpu_s on cleaner, most on cleaner-ser"},
	{Name: "colfmt.unmarshal_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "wall_s, cpu_s on cleaner, most on cleaner-ser"},
	{Name: "colfmt.unmarshal_coord_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "cpu_s on cleaner-ser (census decode)"},
	{Name: "colfmt.bytes_per_record", Unit: "B/rec", Better: "lower", Moves: "retained_heap_mb on cleaner-ser; engine.shuffle_mb"},
	{Name: "engine.shuffle_probe_s", Unit: "s", Better: "lower", Moves: "wall_s, cpu_s on cleaner family"},
	{Name: "cleaner.sort_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "cleaner.markdup_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "cleaner.duplicates", Unit: "count", Better: "higher", Moves: "none (invariant: > 0)"},
	{Name: "cleaner.realign_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "cleaner.realign_targets", Unit: "count", Better: "higher", Moves: "none (invariant)"},
	{Name: "cleaner.bqsr_count_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "cleaner.bqsr_apply_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner family"},
	{Name: "caller.active_regions_s", Unit: "s", Better: "lower", Moves: "wall_s on caller, wgs"},
	{Name: "caller.active_regions", Unit: "count", Better: "higher", Moves: "none (invariant)"},
	{Name: "caller.call_region_s", Unit: "s", Better: "lower", Moves: "wall_s on caller, wgs"},
	{Name: "caller.pairhmm_batch_s", Unit: "s", Better: "lower", Moves: "wall_s on caller, wgs"},
	{Name: "caller.calls", Unit: "count", Better: "higher", Moves: "precision, recall on wgs, caller (zero on cleaner family: no calls written)"},
	{Name: "mproc.startup_s", Unit: "s", Better: "lower", Moves: "wall_s on cleaner-mproc only (spawn + handshake + FIN of a no-op job)"},
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
