package mtree

// Live-tree arithmetic: the placement equations of section 4 assume
// every joined station stays up, but a deployed fabric loses stations
// mid-semester. The helpers here derive the *grafted* tree over the
// live stations — a failed station's children attach to its nearest
// live ancestor, and the on-demand pull route skips dead holders — so
// the netsim simulator and the live TCP fabric route around failures
// with the same arithmetic.

// LiveChildren expands the children of station n among total joined
// stations, replacing every child reported dead by the down predicate
// with that child's own (recursively expanded) children. This is the
// grafting rule for a broadcast: the subtree under a dead station is
// served directly by the dead station's parent.
func LiveChildren(n, m, total int, down func(int) bool) ([]int, error) {
	kids, err := Children(n, m, total)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, kid := range kids {
		if down == nil || !down(kid) {
			out = append(out, kid)
			continue
		}
		grafted, err := LiveChildren(kid, m, total, down)
		if err != nil {
			return nil, err
		}
		out = append(out, grafted...)
	}
	return out, nil
}

// LiveAncestors returns the ancestors of station k from its parent up
// to the root, with positions reported dead by the down predicate
// removed. The first element (when any) is the station's nearest live
// ancestor — the grafted parent a broadcast or an on-demand pull uses
// when the real parent is down. The slice is empty when every ancestor
// including the root is dead.
func LiveAncestors(k, m int, down func(int) bool) ([]int, error) {
	path, err := AncestorPath(k, m)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, p := range path[1:] {
		if down != nil && down(p) {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}
