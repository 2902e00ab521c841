package engine

import (
	"fmt"
	"time"
)

// action runs the one stage shape every action folds over: task p reads
// partition p under the field mask need and reduces it to a slice via part;
// the driver step allgathers those slices through codec, so every rank holds
// all of them, and hands them to fold in partition order. An action is a
// barrier: it forces a copy of a lazy d as items, so it stores nothing on d
// and encodes nothing (see Force).
func action[T, R any](name string, d *Dataset[T], need FieldMask, codec Serializer[R],
	part func(items []T) []R, fold func(parts [][]R)) error {
	if d == nil {
		return nilInput(name)
	}
	d = WithCodec(d, nil)
	if err := d.Force(); err != nil {
		return err
	}
	parts := make([][]R, d.NumPartitions())
	return d.ctx.runStage(taskSet{
		row:  StageMetrics{Name: name, Kind: StageAction},
		n:    len(parts),
		hint: d.partitionSizeHint,
		fn: func(p int, tm *TaskMetrics) error {
			items, err := d.partitionNeed(p, tm, need)
			if err != nil {
				return err
			}
			tm.InputItems = len(items)
			parts[p] = part(items)
			tm.OutputItems = len(parts[p])
			return nil
		},
		driver: func() (time.Duration, error) {
			wait, err := allgather(d.ctx, name, codec, parts)
			if err == nil {
				fold(parts)
			}
			return wait, err
		},
	})
}

// allgather replicates an action's per-partition results across ranks, so
// every rank resumes the driver program with identical values (SPMD
// lockstep). It rides the shuffle's Exchange with len(parts) map slots and
// procs reduce slots, reduce slot r being rank r: each rank publishes the blob
// of every partition it owns to every sibling (and an empty bucket to
// itself), waits for its slot to be Ready, and decodes the rest.
// Locally-run partitions keep their values (codecs round-trip values exactly,
// so all ranks agree), and no blob is charged as shuffle bytes. wait is the
// time blocked on peers, which the stage runner records as FetchWait and
// keeps out of DriverTime; the encode and decode are this rank's own serial
// work. A job failure during the wait is reported with the action's name.
// No-op with one process.
func allgather[R any](ctx *Context, name string, codec Serializer[R], parts [][]R) (wait time.Duration, err error) {
	procs, rank := ctx.procs(), ctx.rank()
	if procs == 1 {
		return 0, nil
	}
	ex := ctx.exec.Exchange(ctx.nextSeq(), len(parts), procs)
	defer ex.Close()
	for p := range parts {
		if ctx.ownerOf(p) != rank {
			continue
		}
		blob, err := codec.Marshal(parts[p])
		if err != nil {
			return 0, fmt.Errorf("engine: gather encode partition %d: %w", p, err)
		}
		for r := range procs {
			if r == rank {
				ex.Publish(p, r, nil) // this rank keeps parts[p] as it is
			} else {
				ex.Publish(p, r, blob)
			}
		}
	}
	if wait, err = ctx.awaitPeers(name, ex); err != nil {
		return wait, err
	}
	for p, blob := range ex.Take(rank) {
		if ctx.ownerOf(p) == rank {
			continue
		}
		if parts[p], err = codec.Unmarshal(blob); err != nil {
			return wait, fmt.Errorf("engine: gather decode partition %d: %w", p, err)
		}
	}
	return wait, nil
}
