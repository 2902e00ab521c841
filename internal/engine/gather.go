package engine

import (
	"fmt"
	"time"
)

// Action allgather: under an SPMD executor every rank runs only the action
// tasks it owns, then replicates the per-partition results so all ranks
// resume the driver program with identical values (lockstep). The transport
// moves opaque byte blobs; helpers here handle the encode/decode around
// Executor.Gather for the item-typed actions.

// allgatherParts replicates an action's per-partition item slices across
// ranks: this rank marshals the partitions it owns through the dataset's
// effective codec, allgathers the blobs, and decodes the partitions sibling
// ranks ran. Locally-run partitions keep their original items (codecs
// round-trip values exactly, so both sides agree). No-op with one process.
// wait is the time spent blocked on peers inside Executor.Gather, which the
// stage runner keeps out of DriverTime; the encode and decode around it are
// this rank's own serial work.
func allgatherParts[T any](d *Dataset[T], parts [][]T) (wait time.Duration, err error) {
	ctx := d.ctx
	if ctx.procs() == 1 {
		return 0, nil
	}
	rank := ctx.rank()
	codec := effectiveSerializer(d.codec)
	owned := make([][]byte, len(parts))
	for p := range parts {
		if ctx.ownerOf(p) != rank {
			continue
		}
		b, err := codec.Marshal(parts[p])
		if err != nil {
			return 0, fmt.Errorf("engine: gather encode partition %d: %w", p, err)
		}
		owned[p] = b
	}
	t0 := time.Now()
	blobs, err := ctx.exec.Gather(ctx.nextSeq(), len(parts), owned)
	wait = time.Since(t0)
	if err != nil {
		return wait, err
	}
	for p := range parts {
		if ctx.ownerOf(p) == rank {
			continue
		}
		items, err := codec.Unmarshal(blobs[p])
		if err != nil {
			return wait, fmt.Errorf("engine: gather decode partition %d: %w", p, err)
		}
		parts[p] = items
	}
	return wait, nil
}
