package engine

// MapPartitions is the fundamental narrow operation: fn transforms each
// partition independently. fn receives the partition index and its items.
//
// Narrow operations are LAZY: the call records a lineage node and returns
// immediately; a downstream barrier (action, shuffle) runs the maximal
// pending chain as one fused stage (see lineage.go). Errors from fn therefore
// surface at the barrier, wrapped with this stage's name. A narrow op reads
// its input whole.
func MapPartitions[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(p int, items []T) ([]U, error)) (*Dataset[U], error) {
	if d == nil {
		return nil, nilInput(name)
	}
	return lazyNarrow(name, d, codec, fn), nil
}

// Map applies fn to every item.
func Map[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) U) (*Dataset[U], error) {
	return MapPartitions(name, d, codec, func(_ int, items []T) ([]U, error) {
		out := make([]U, len(items))
		for i, it := range items {
			out[i] = fn(it)
		}
		return out, nil
	})
}

// FlatMap applies fn to every item and concatenates the results.
func FlatMap[T, U any](name string, d *Dataset[T], codec Serializer[U], fn func(T) []U) (*Dataset[U], error) {
	return MapPartitions(name, d, codec, func(_ int, items []T) ([]U, error) {
		var out []U
		for _, it := range items {
			out = append(out, fn(it)...)
		}
		return out, nil
	})
}

// Filter keeps items for which pred is true.
func Filter[T any](name string, d *Dataset[T], pred func(T) bool) (*Dataset[T], error) {
	if d == nil {
		return nil, nilInput(name)
	}
	return MapPartitions(name, d, d.codec, func(_ int, items []T) ([]T, error) {
		var out []T
		for _, it := range items {
			if pred(it) {
				out = append(out, it)
			}
		}
		return out, nil
	})
}

// Collect gathers all partitions to the driver in partition order. Collect is
// an action: it runs any pending narrow chain first.
func Collect[T any](name string, d *Dataset[T]) ([]T, error) {
	if d == nil {
		return nil, nilInput(name)
	}
	var out []T
	err := action(name, d, FieldsAll, effectiveSerializer(d.codec),
		func(items []T) []T { return items },
		func(parts [][]T) {
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			out = make([]T, 0, total)
			for _, p := range parts {
				out = append(out, p...)
			}
		})
	return out, err
}

// Reduce folds all items with an associative function. Each task reduces its
// partition; the driver reduces partial results serially (the Collect-style
// serial step that throttles BQSR in §5.2.2). Reduce is an action: it runs
// any pending narrow chain first.
func Reduce[T any](name string, d *Dataset[T], fn func(T, T) T) (T, bool, error) {
	var acc T
	if d == nil {
		return acc, false, nilInput(name)
	}
	found := false
	err := action(name, d, FieldsAll, effectiveSerializer(d.codec),
		func(items []T) []T { // a partition's fold, as 0 or 1 items
			if len(items) == 0 {
				return nil
			}
			part := items[0]
			for _, it := range items[1:] {
				part = fn(part, it)
			}
			return []T{part}
		},
		func(parts [][]T) {
			for _, p := range parts {
				for _, v := range p {
					if found {
						acc = fn(acc, v)
					} else {
						acc, found = v, true
					}
				}
			}
		})
	return acc, found, err
}

// Count returns the total number of items. Count is an action: it runs any
// pending narrow chain first. It then reads with a zero field mask: a
// columnar-stored dataset decodes only block headers (the record count is in
// the header), pruning every column. Each task's count travels as the census
// pair of a single key.
func Count[T any](name string, d *Dataset[T]) (int, error) {
	total := 0
	err := action(name, d, 0, KeyedIntCodec{},
		func(items []T) []Keyed { return []Keyed{{Val: len(items)}} },
		func(parts [][]Keyed) {
			for _, p := range parts {
				for _, kv := range p {
					total += kv.Val
				}
			}
		})
	return total, err
}
