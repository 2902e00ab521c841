package engine

import "fmt"

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
func allgatherParts[T any](d *Dataset[T], parts [][]T) error {
	ctx := d.ctx
	if ctx.procs() == 1 {
		return nil
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
			return fmt.Errorf("engine: gather encode partition %d: %w", p, err)
		}
		owned[p] = b
	}
	blobs, err := ctx.exec.Gather(ctx.nextSeq(), len(parts), owned)
	if err != nil {
		return err
	}
	for p := range parts {
		if ctx.ownerOf(p) == rank {
			continue
		}
		items, err := codec.Unmarshal(blobs[p])
		if err != nil {
			return fmt.Errorf("engine: gather decode partition %d: %w", p, err)
		}
		parts[p] = items
	}
	return nil
}
