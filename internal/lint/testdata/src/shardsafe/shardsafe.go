// Package shardsafe is the golden fixture for the shardsafe rule: Tick
// trees reaching boundary-only APIs and poking other components' fields,
// against the sanctioned staged-wire and own-method paths.
package shardsafe

// wire is the staged cross-shard path stand-in (link.Wire): SendAt stages
// for the next cycle; InjectAt/SetFault act immediately and are boundary-
// only, and so is Board, which re-points the wire's next-arrival word at a
// slot of its consumer's arrival board.
type wire struct {
	cur, next []int
	slot      *int
}

func (w *wire) Flush() { w.cur, w.next = w.next, w.cur[:0] }

func (w *wire) SendAt(v int) { w.next = append(w.next, v) }

func (w *wire) InjectAt(v int) { w.cur = append(w.cur, v) }

func (w *wire) SetFault(on bool) {}

func (w *wire) Board(slot *int) { w.slot = slot }

// peer is a component on (potentially) another shard: it has a Tick method.
type peer struct {
	credits []int
	w       *wire
}

func (pr *peer) Tick(now int64) {
	if len(pr.credits) > 0 {
		pr.credits[0]++ // own method: the sanctioned mutator
	}
}

// counters has no Tick method: it is plain data, not a component, and a Tick
// tree may write it directly.
type counters struct{ drained int }

// node's Tick tree carries the violations, one level below the root so the
// walk (not just the root scan) is exercised.
type node struct {
	other *peer
	w     *wire
	stats *counters
	board [1]int
}

func (n *node) Tick(now int64) {
	n.helper(now)
	n.drain()
	n.w.SendAt(1) // staged path: clean
}

func (n *node) helper(now int64) {
	n.other.credits[0] = 0 // want `write to peer\.credits outside peer's methods`
	n.w.InjectAt(3)        // want `boundary-only method InjectAt`
	n.w.SetFault(true)     // want `boundary-only method SetFault`
	n.w.Board(&n.board[0]) // want `boundary-only method Board`
	n.stats.drained++      // no Tick method on counters: clean
}

// drain carries a reasoned allow: the mutation test deletes the allow line
// and expects the InjectAt diagnostic to fire.
func (n *node) drain() {
	//lint:allow(shardsafe) drain runs only at the window boundary, under the barrier, on the owning shard
	n.w.InjectAt(9)
}

// Build-time code may call boundary APIs and initialize components freely:
// it is not reachable from any Tick root.
func Build(n *node) {
	n.w.InjectAt(0)
	n.w.Board(&n.board[0])
	n.other.credits = make([]int, 4)
	n.other.w = n.w
}

// setFault is a free function that happens to share a boundary name: calls
// to it are not method calls and are not flagged.
func setFault(on bool) {}

type toggler struct{ armed bool }

func (t *toggler) Tick(now int64) {
	setFault(t.armed) // free function, not a boundary method: clean
}
