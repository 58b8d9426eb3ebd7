package sim

// Push appends v to s, at least doubling s's capacity when it is full. The
// simulator's tables that grow one entry at a time towards a node or flow
// count (the engine's registration arrays, the flow solver's per-flow tables
// and staging list) grow through it. append grows a large slice by about
// 1.25×, leaving some four times the final table behind as garbage; with no
// collection between build and the end of a short run, all of it counts
// towards peak memory. Doubling leaves about one final table's worth.
func Push[T any](s []T, v T) []T {
	return append(reserve(s, len(s)+1), v)
}

// reserve returns s with capacity for at least n elements: s itself when it
// has it, else a copy with the larger of n and twice s's capacity.
func reserve[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	t := make([]T, len(s), max(n, 2*cap(s)))
	copy(t, s)
	return t
}
