package gpf

import "github.com/gpf-go/gpf/internal/engine"

// Engine operations for building custom Processes: the same primitives the
// built-in Processes use. Narrow operations (Map, Filter, FlatMap,
// MapPartitions, SortPartitions) are lazy — they record lineage and execute
// only at a barrier (an action such as Collect, Reduce or Count, or a wide
// operation such as PartitionBy, which runs at the call), at which point the
// maximal chain of pending narrow ops runs as a single fused stage per
// partition. A fused chain appears in the engine metrics as one stage named
// by joining the op names with "+"; errors from narrow op functions likewise
// surface at the barrier, not at the recording call.
//
// The engine counts no readers and a barrier stores nothing on its input: a
// lazy dataset two operations read runs inside each of them unless it is
// forced first (Dataset.Force, Spark's persist). Pipeline.Run does this for
// every resource more than one Process reads; a Process that reads one of
// its own datasets twice forces it itself.
// Once the last Process that declares such a resource as an input has run,
// Pipeline.Run releases it if a Process of the pipeline defined it: its data
// handles are dropped, and a later read errors. A Process must therefore
// declare every resource it reads.

// Serializer is the partition codec interface (see GPFSAMCodec and friends).
type Serializer[T any] = engine.Serializer[T]

// Parallelize distributes items over numPartitions.
func Parallelize[T any](eng *Engine, items []T, numPartitions int) *Dataset[T] {
	return engine.Parallelize(eng, items, numPartitions)
}

// WithCodec attaches a serializer to a dataset.
func WithCodec[T any](d *Dataset[T], codec Serializer[T]) *Dataset[T] {
	return engine.WithCodec(d, codec)
}

// Map applies fn to every item.
func Map[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) U) (*Dataset[U], error) {
	return engine.Map(name, d, codec, fn)
}

// Filter keeps items for which pred is true.
func Filter[T any](name string, d *Dataset[T], pred func(T) bool) (*Dataset[T], error) {
	return engine.Filter(name, d, pred)
}

// FlatMap applies fn to every item and concatenates the results.
func FlatMap[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) []U) (*Dataset[U], error) {
	return engine.FlatMap(name, d, codec, fn)
}

// MapPartitions transforms whole partitions.
func MapPartitions[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(p int, items []T) ([]U, error)) (*Dataset[U], error) {
	return engine.MapPartitions(name, d, codec, fn)
}

// PartitionBy shuffles items to the partition selected by key.
func PartitionBy[T any](name string, d *Dataset[T], numPartitions int, key func(T) int) (*Dataset[T], error) {
	return engine.PartitionBy(name, d, numPartitions, key)
}

// SortPartitions sorts every partition by less (a narrow, lazy op).
func SortPartitions[T any](name string, d *Dataset[T], less func(a, b T) bool) (*Dataset[T], error) {
	return engine.SortPartitions(name, d, less)
}

// Collect gathers all partitions to the driver.
func Collect[T any](name string, d *Dataset[T]) ([]T, error) {
	return engine.Collect(name, d)
}

// Reduce folds all items with an associative function; found is false for
// empty datasets.
func Reduce[T any](name string, d *Dataset[T], fn func(T, T) T) (value T, found bool, err error) {
	return engine.Reduce(name, d, fn)
}

// Count returns the total number of items.
func Count[T any](name string, d *Dataset[T]) (int, error) {
	return engine.Count(name, d)
}

// CountByKey counts items per integer key.
func CountByKey[T any](name string, d *Dataset[T], key func(T) int) (map[int]int, error) {
	return engine.CountByKey(name, d, key)
}
