// Package graph implements the dependency-graph machinery used by the Janus
// baseline: strongly-connected-component computation (Tarjan) for
// deterministic execution of conflict cycles. This is one of the "intensive
// graph algorithms" whose CPU cost Tiga's evaluation contrasts against
// timestamp ordering (§1, §5.2); Detock's deadlock-resolution cost is
// modelled by count, without building a graph.
package graph

import "sort"

// Graph is a directed graph over transaction vertices identified by uint64.
type Graph struct {
	adj map[uint64]map[uint64]struct{}
}

// New returns an empty graph.
func New() *Graph { return &Graph{adj: make(map[uint64]map[uint64]struct{})} }

// AddNode ensures v exists.
func (g *Graph) AddNode(v uint64) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[uint64]struct{})
	}
}

// AddEdge adds a dependency edge u -> v (u must execute before v... or, in
// Janus terms, v depends on u).
func (g *Graph) AddEdge(u, v uint64) {
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] = struct{}{}
}

// Remove deletes v and all incident edges.
func (g *Graph) Remove(v uint64) {
	delete(g.adj, v)
	for _, out := range g.adj {
		delete(out, v)
	}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.adj) }

// Edges returns the out-degree sum (test helper / cost model input).
func (g *Graph) Edges() int {
	n := 0
	for _, out := range g.adj {
		n += len(out)
	}
	return n
}

// Neighbors returns v's out-neighbors in sorted order.
func (g *Graph) Neighbors(v uint64) []uint64 {
	out := make([]uint64, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SCC computes strongly connected components with Tarjan's algorithm,
// returned in reverse topological order (dependencies first). Vertices inside
// a component are sorted ascending, giving the deterministic tie-break Janus
// uses to execute cyclic conflicts identically on every server.
func (g *Graph) SCC() [][]uint64 {
	index := make(map[uint64]int, len(g.adj))
	low := make(map[uint64]int, len(g.adj))
	onStack := make(map[uint64]bool, len(g.adj))
	var stack []uint64
	var comps [][]uint64
	next := 0

	vertices := make([]uint64, 0, len(g.adj))
	for v := range g.adj {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })

	// Iterative Tarjan to avoid deep recursion on long dependency chains.
	type frame struct {
		v     uint64
		succs []uint64
		i     int
	}
	for _, root := range vertices {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{v: root, succs: g.Neighbors(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: g.Neighbors(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// All successors processed: pop.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []uint64
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// Ready returns vertices with no outstanding dependencies (empty adjacency
// after dependency removal), sorted ascending.
func (g *Graph) Ready() []uint64 {
	var out []uint64
	for v, deps := range g.adj {
		if len(deps) == 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
