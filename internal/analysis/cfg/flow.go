package cfg

// Forward dataflow over a Graph: a small reaching-facts engine. A fact is
// any comparable value an analyzer invents ("variable obj tainted by
// time.Now", "variable obj holds a map-range value"). The engine
// iterates a transfer function over the blocks reachable from Entry until
// the per-block entry sets stop changing, meeting predecessor exit sets by
// union (a may-analysis: a fact holds on entry when it holds on SOME path
// there).
//
// Transfer functions must be monotone — they may add and remove facts, but
// what they do must depend only on the incoming set — and the fact space
// must be finite for the fixpoint to exist. Both hold naturally for the
// gen/kill style taint the determinism analyzer runs.

// A FactSet is a set of comparable dataflow facts.
type FactSet map[any]bool

// NewFacts returns a set holding the given facts.
func NewFacts(facts ...any) FactSet {
	s := make(FactSet, len(facts))
	for _, f := range facts {
		s[f] = true
	}
	return s
}

// Clone returns an independent copy of s.
func (s FactSet) Clone() FactSet {
	out := make(FactSet, len(s))
	for f := range s {
		out[f] = true
	}
	return out
}

// Equal reports whether s and t hold exactly the same facts.
func (s FactSet) Equal(t FactSet) bool {
	if len(s) != len(t) {
		return false
	}
	for f := range s {
		if !t[f] {
			return false
		}
	}
	return true
}

func (s FactSet) union(t FactSet) FactSet {
	out := s.Clone()
	for f := range t {
		out[f] = true
	}
	return out
}

// maxRounds bounds the fixpoint iteration as a safety net against a
// non-monotone transfer function; a monotone gen/kill analysis over a
// reducible CFG converges in a handful of rounds.
const maxRounds = 64

// Forward computes, for every block reachable from g.Entry, the fact set
// holding on entry to that block. entry seeds g.Entry; transfer maps a
// block's entry set to its exit set (it must not mutate in). Blocks not
// reachable from Entry are absent from the result.
func Forward(g *Graph, entry FactSet, transfer func(b *Block, in FactSet) FactSet) map[*Block]FactSet {
	in := map[*Block]FactSet{g.Entry: entry.Clone()}
	out := map[*Block]FactSet{}

	for round := 0; round < maxRounds; round++ {
		changed := false
		// Deterministic sweep in block order; the worklist would be
		// faster but the graphs here are function-sized.
		for _, b := range g.Blocks {
			inb, seen := in[b]
			if b != g.Entry {
				var merged FactSet
				for _, p := range b.Preds {
					po, ok := out[p]
					if !ok {
						continue // predecessor not yet reached
					}
					if merged == nil {
						merged = po.Clone()
					} else {
						merged = merged.union(po)
					}
				}
				if merged == nil {
					continue // unreachable so far
				}
				if seen && merged.Equal(inb) {
					// entry set unchanged; recompute out only if absent
					if _, ok := out[b]; ok {
						continue
					}
				}
				inb = merged
				in[b] = inb
			} else if !seen {
				inb = entry.Clone()
				in[b] = inb
			}
			newOut := transfer(b, inb.Clone())
			if old, ok := out[b]; !ok || !newOut.Equal(old) {
				out[b] = newOut
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}
