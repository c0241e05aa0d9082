package sim

// Registry hands out dense tags (index+1) for in-flight records and
// recycles freed indices, so a fabric can name each request or burst it
// holds by an int64 tag instead of inserting it into and deleting it from
// a map on the tick path. The zero value is empty and ready to use; tag 0
// is never issued.
type Registry[T any] struct {
	items []T
	free  []int32
}

// Add stores v and returns its tag.
func (g *Registry[T]) Add(v T) int64 {
	if n := len(g.free); n > 0 {
		i := g.free[n-1]
		g.free = g.free[:n-1]
		g.items[i] = v
		return int64(i) + 1
	}
	g.items = append(g.items, v)
	return int64(len(g.items))
}

// At returns the record under tag, which must be live.
func (g *Registry[T]) At(tag int64) *T { return &g.items[tag-1] }

// Take returns the record under tag and frees the tag for reuse.
func (g *Registry[T]) Take(tag int64) T {
	var zero T
	v := g.items[tag-1]
	g.items[tag-1] = zero
	g.free = append(g.free, int32(tag-1))
	return v
}
