package ir

// NodeKind classifies CFG nodes.
type NodeKind uint8

const (
	// KindEntry is the unique section entry.
	KindEntry NodeKind = iota
	// KindExit is the unique section exit.
	KindExit
	// KindStmt is a simple statement (Call, Assign, or a synthetic
	// locking statement).
	KindStmt
	// KindBranch evaluates a condition and forks.
	KindBranch
	// KindJoin merges control flow.
	KindJoin
)

// Node is one CFG node. Stmt points into the structured AST for KindStmt
// nodes; Cond is set for KindBranch nodes.
type Node struct {
	ID    int
	Kind  NodeKind
	Stmt  Stmt
	Cond  Cond
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of one atomic section, with precomputed
// reflexive (reach0) and one-or-more-step (reach1) reachability.
type CFG struct {
	Atomic *Atomic
	Nodes  []*Node
	Entry  int
	Exit   int

	byStmt  map[Stmt]int
	endNode map[Stmt]int
	reach0  [][]bool // path of length ≥ 0
	reach1  [][]bool // path of length ≥ 1
}

// BuildCFG constructs the CFG of an atomic section and computes the
// reachability relations. Branch conditions contribute both outcomes
// (the analysis is path-insensitive except for the null-check reasoning,
// which the optimizer performs structurally).
func BuildCFG(a *Atomic) *CFG {
	g := &CFG{Atomic: a, byStmt: make(map[Stmt]int), endNode: make(map[Stmt]int)}
	g.Entry = g.newNode(KindEntry, nil, nil)
	g.Exit = g.newNode(KindExit, nil, nil)
	last := g.buildBlock(a.Body, g.Entry)
	g.edge(last, g.Exit)
	g.computeReach()
	return g
}

func (g *CFG) newNode(k NodeKind, s Stmt, c Cond) int {
	n := &Node{ID: len(g.Nodes), Kind: k, Stmt: s, Cond: c}
	g.Nodes = append(g.Nodes, n)
	if s != nil {
		g.byStmt[s] = n.ID
	}
	return n.ID
}

func (g *CFG) edge(from, to int) {
	g.Nodes[from].Succs = append(g.Nodes[from].Succs, to)
	g.Nodes[to].Preds = append(g.Nodes[to].Preds, from)
}

// buildBlock threads the block after node `from`, returning the last
// node of the block's straight-line spine.
func (g *CFG) buildBlock(b Block, from int) int {
	cur := from
	for _, s := range b {
		cur = g.buildStmt(s, cur)
	}
	return cur
}

func (g *CFG) buildStmt(s Stmt, from int) int {
	switch x := s.(type) {
	case *If:
		br := g.newNode(KindBranch, s, x.Cond)
		g.edge(from, br)
		thenEnd := g.buildBlock(x.Then, br)
		join := g.newNode(KindJoin, nil, nil)
		g.edge(thenEnd, join)
		if x.Else != nil {
			elseEnd := g.buildBlock(x.Else, br)
			g.edge(elseEnd, join)
		} else {
			g.edge(br, join)
		}
		g.endNode[s] = join
		return join
	case *While:
		br := g.newNode(KindBranch, s, x.Cond)
		g.edge(from, br)
		bodyEnd := g.buildBlock(x.Body, br)
		g.edge(bodyEnd, br) // back edge
		exit := g.newNode(KindJoin, nil, nil)
		g.edge(br, exit)
		g.endNode[s] = exit
		return exit
	default:
		n := g.newNode(KindStmt, s, nil)
		g.edge(from, n)
		g.endNode[s] = n
		return n
	}
}

func (g *CFG) computeReach() {
	n := len(g.Nodes)
	g.reach1 = make([][]bool, n)
	for i := range g.reach1 {
		g.reach1[i] = make([]bool, n)
		for _, s := range g.Nodes[i].Succs {
			g.reach1[i][s] = true
		}
	}
	// Warshall closure for reach1 (≥ 1 step).
	for k := 0; k < n; k++ {
		rk := g.reach1[k]
		for i := 0; i < n; i++ {
			if !g.reach1[i][k] {
				continue
			}
			ri := g.reach1[i]
			for j := 0; j < n; j++ {
				if rk[j] {
					ri[j] = true
				}
			}
		}
	}
	g.reach0 = make([][]bool, n)
	for i := range g.reach0 {
		g.reach0[i] = make([]bool, n)
		copy(g.reach0[i], g.reach1[i])
		g.reach0[i][i] = true
	}
}

// EndNodeOf returns the CFG node reached immediately after the given
// statement completes: the statement's own node for simple statements,
// the join node for an If, and the loop-exit node for a While. It is the
// program point "just after s".
func (g *CFG) EndNodeOf(s Stmt) (int, bool) {
	id, ok := g.endNode[s]
	return id, ok
}

// NodeOf returns the CFG node id of an AST statement (Call, Assign, or
// synthetic). Branching statements map to their branch node.
func (g *CFG) NodeOf(s Stmt) (int, bool) {
	id, ok := g.byStmt[s]
	return id, ok
}

// ReachesProperly reports a path of length ≥ 1 from a to b (needed for
// self-reachability through loops, as in Fig 9).
func (g *CFG) ReachesProperly(a, b int) bool { return g.reach1[a][b] }

// CallNodes returns the ids of all Call nodes in the section.
func (g *CFG) CallNodes() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == KindStmt {
			if _, ok := n.Stmt.(*Call); ok {
				out = append(out, n.ID)
			}
		}
	}
	return out
}

// AssignedVar returns the variable a node writes, or "". Both explicit
// assignments and calls that bind their result write a variable.
func (g *CFG) AssignedVar(id int) string {
	n := g.Nodes[id]
	if n.Kind != KindStmt {
		return ""
	}
	switch x := n.Stmt.(type) {
	case *Assign:
		return x.Lhs
	case *Call:
		return x.Assign
	}
	return ""
}

// AssignedBetween reports whether, on some path from l to an execution
// of l', the variable v is written strictly before that execution of l'
// reaches its lock point. Writes at l itself count (they happen after
// the point where a lock before l would be taken); the write performed
// by l' itself does not. This is the "x' is assigned a value along the
// path between l and l'" test of §3.2.
func (g *CFG) AssignedBetween(l, lp int, v string) bool {
	for _, n := range g.Nodes {
		if g.AssignedVar(n.ID) != v {
			continue
		}
		if g.reach0[l][n.ID] && g.reach1[n.ID][lp] {
			return true
		}
	}
	return false
}

// UsedAtOrAfter reports whether some call with receiver v is reachable
// from l by a path of length ≥ 0 (including l itself). This is the
// future-use test of LS(l) in §3.3.
func (g *CFG) UsedAtOrAfter(l int, v string) bool {
	for _, id := range g.CallNodes() {
		if g.Nodes[id].Stmt.(*Call).Recv == v && g.reach0[l][id] {
			return true
		}
	}
	return false
}

// ShortestDistanceFromEntry returns BFS distances from the entry node;
// unreachable nodes get -1. Used by the early-lock-release optimization
// to pick the earliest program point.
func (g *CFG) ShortestDistanceFromEntry() []int {
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[g.Entry] = 0
	queue := []int{g.Entry}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, s := range g.Nodes[u].Succs {
			if dist[s] == -1 {
				dist[s] = dist[u] + 1
				queue = append(queue, s)
			}
		}
	}
	return dist
}

// PostDominates reports whether every path from a to the exit passes
// through b. (b post-dominates a.) Computed by checking that a cannot
// reach the exit in the graph with b removed.
func (g *CFG) PostDominates(b, a int) bool {
	if a == b {
		return true
	}
	// DFS from a to exit avoiding b.
	seen := make([]bool, len(g.Nodes))
	stack := []int{a}
	seen[a] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == g.Exit {
			return false
		}
		for _, s := range g.Nodes[u].Succs {
			if s != b && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}
