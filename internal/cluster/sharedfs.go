package cluster

import "time"

// SharedFS models a shared cluster filesystem serving many concurrent
// clients. Aggregate server bandwidth saturates, so per-client bandwidth
// collapses as the number of concurrently streaming clients grows — the
// effect behind Table 1 of the paper, where I/O share climbs from ~25-29% at
// 1 sample to 60-74% at 30 samples.
type SharedFS struct {
	Name string
	// AggregateMBps is the total server-side bandwidth.
	AggregateMBps float64
	// PerClientCapMBps bounds a single client regardless of load.
	PerClientCapMBps float64
	// MetadataPenalty multiplies effective time for small-file metadata
	// traffic (NFS suffers more than Lustre).
	MetadataPenalty float64
}

// PerClientMBps returns the bandwidth one of `clients` concurrently
// streaming clients receives.
func (fs SharedFS) PerClientMBps(clients int) float64 {
	if clients < 1 {
		clients = 1
	}
	bw := fs.AggregateMBps / float64(clients)
	if bw > fs.PerClientCapMBps {
		bw = fs.PerClientCapMBps
	}
	return bw
}

// TransferTime returns the wall time for one client among `clients` to move
// `bytes` through the shared FS.
func (fs SharedFS) TransferTime(bytes int64, clients int) time.Duration {
	bw := fs.PerClientMBps(clients) * 1e6 // bytes/sec
	return time.Duration(float64(bytes) / bw * fs.MetadataPenalty * float64(time.Second))
}

// FileStage is one step of a disk-based (file-handoff) pipeline: read the
// previous step's files, compute, write this step's files. This models the
// conventional tool chains (bwa | samtools | picard | GATK) whose
// intermediate SAM/BAM files land on the shared FS.
type FileStage struct {
	Name       string
	CPU        time.Duration // per-sample compute time at the given core count
	ReadBytes  int64         // per sample
	WriteBytes int64         // per sample
}

// FilePipelineResult decomposes a disk-based pipeline run.
type FilePipelineResult struct {
	IOTime    time.Duration
	CPUTime   time.Duration
	WallTime  time.Duration
	IOPercent float64
}

// SimulateFilePipeline runs `samples` identical file-handoff pipelines
// concurrently against fs and returns the per-sample I/O versus CPU
// breakdown. All samples stream concurrently, so each sees
// fs.PerClientMBps(samples); compute times are unaffected by FS contention.
func SimulateFilePipeline(stages []FileStage, samples int, fs SharedFS) FilePipelineResult {
	var res FilePipelineResult
	for _, s := range stages {
		io := fs.TransferTime(s.ReadBytes, samples) + fs.TransferTime(s.WriteBytes, samples)
		res.IOTime += io
		res.CPUTime += s.CPU
	}
	res.WallTime = res.IOTime + res.CPUTime
	if res.WallTime > 0 {
		res.IOPercent = float64(res.IOTime) / float64(res.WallTime)
	}
	return res
}
