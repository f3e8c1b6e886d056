package graph

// InSideHeld reports whether g holds an in-side weight array: an eager
// one, or a WithWeights graph's once a reader has scattered it.
func InSideHeld(g *Graph) bool {
	return g.inWeights != nil || (g.lazyIn != nil && g.lazyIn.w != nil)
}
