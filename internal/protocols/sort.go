package protocols

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
)

// EncSort realizes the EncSort building block of [7] ("sorting behind the
// curtain"): S1 holds encrypted items and ends with the same multiset of
// items ordered by the designated score column, learning nothing about the
// order; S2 sees only masked comparator differences.
//
// Implementation: a Batcher odd-even merge sorting network whose
// compare-exchange gates are built from EncCompareHidden (the comparison
// bit stays encrypted) and the encrypted-selection gadget. Gates within a
// network layer are independent, so each layer costs two rounds (one
// comparison batch, one recovery batch) — the parallelism the paper
// invokes for its O(log^2 m) depth claim (Section 10.3).
//
// The list is padded to a power of two with sentinel items that sort last
// and are stripped before returning. col selects the key column; desc
// selects descending order; magBits bounds the key magnitudes.
func EncSort(ctx context.Context, c *cloud.Client, items []Item, col int, desc bool, magBits int) ([]Item, error) {
	n := len(items)
	if n <= 1 {
		return append([]Item(nil), items...), nil
	}
	cols := len(items[0].Scores)
	if col < 0 || col >= cols {
		return nil, fmt.Errorf("protocols: sort column %d out of range", col)
	}
	for i, it := range items {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: EncSort item %d: %w", i, err)
		}
	}

	// Pad to the next power of two with items whose key sorts last.
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	work := make([]Item, p2)
	copy(work, items)
	if p2 > n {
		padKey := new(big.Int).Lsh(big.NewInt(1), uint(magBits)+1)
		if desc {
			padKey.Neg(padKey)
		}
		err := parallel.ForEachCtx(ctx, c.Parallelism(), p2-n, func(i int) error {
			pad, err := sentinelItem(c.Enc(), items[0], padKey)
			if err != nil {
				return err
			}
			work[n+i] = *pad
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	layers := batcherLayers(p2)
	for _, layer := range layers {
		if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
			return nil, err
		}
	}
	return work[:n], nil
}

// sentinelItem builds a pad item shaped like the template with the given
// key value; non-key columns are zero and the id is random.
func sentinelItem(enc paillier.Encryptor, template Item, key *big.Int) (*Item, error) {
	params := ehl.Params{Kind: template.EHL.Kind, S: template.EHL.Width(), H: template.EHL.Width()}
	id, err := ehl.RandomList(enc.Key(), params)
	if err != nil {
		return nil, err
	}
	out := &Item{EHL: id}
	for range template.Scores {
		ct, err := enc.Encrypt(key)
		if err != nil {
			return nil, err
		}
		out.Scores = append(out.Scores, ct)
	}
	return out, nil
}

// gate is one compare-exchange: after execution, position i holds the item
// that sorts first.
type gate struct{ i, j int }

// batcherLayers generates the odd-even merge sort network for n a power of
// two, grouped into layers of independent gates.
func batcherLayers(n int) [][]gate {
	var seq []gate
	var sortRange func(lo, cnt int)
	var mergeRange func(lo, cnt, step int)
	mergeRange = func(lo, cnt, step int) {
		s2 := step * 2
		if s2 < cnt {
			mergeRange(lo, cnt, s2)
			mergeRange(lo+step, cnt, s2)
			for i := lo + step; i+step < lo+cnt; i += s2 {
				seq = append(seq, gate{i, i + step})
			}
		} else {
			seq = append(seq, gate{lo, lo + step})
		}
	}
	sortRange = func(lo, cnt int) {
		if cnt > 1 {
			m := cnt / 2
			sortRange(lo, m)
			sortRange(lo+m, m)
			mergeRange(lo, cnt, 1)
		}
	}
	sortRange(0, n)

	// Greedy layering preserving sequential order: a gate joins the
	// current layer only if neither endpoint is already used in it.
	var layers [][]gate
	used := map[int]bool{}
	var cur []gate
	flush := func() {
		if len(cur) > 0 {
			layers = append(layers, cur)
			cur = nil
			used = map[int]bool{}
		}
	}
	for _, g := range seq {
		if used[g.i] || used[g.j] {
			flush()
		}
		cur = append(cur, g)
		used[g.i] = true
		used[g.j] = true
	}
	flush()
	return layers
}

// runGateLayer executes one layer of independent compare-exchange gates in
// two rounds: a hidden-comparison batch and a selection/recovery batch.
//
// Only position i of each gate goes through the selection gadget. A
// compare-exchange permutes its pair, so the two outputs always sum to the
// two inputs, and every slot of position j is derived on S1 as the
// complement Enc(I)*Enc(J)*Enc(new_i)^{-1}. new_i carries fresh S2
// randomness (see cloud.Server's Recover), so neither output links back
// to an input ciphertext (DESIGN.md "Compare-exchange complement").
func runGateLayer(ctx context.Context, c *cloud.Client, work []Item, layer []gate, col int, desc bool, magBits int) error {
	// Round 1: hidden comparison bits. For ascending order the gate keeps
	// (i, j) when key_i <= key_j; descending swaps the operands.
	as := make([]*paillier.Ciphertext, len(layer))
	bs := make([]*paillier.Ciphertext, len(layer))
	for k, g := range layer {
		if desc {
			as[k], bs[k] = work[g.j].Scores[col], work[g.i].Scores[col]
		} else {
			as[k], bs[k] = work[g.i].Scores[col], work[g.j].Scores[col]
		}
	}
	bits, err := EncCompareHiddenBatch(ctx, c, as, bs, magBits)
	if err != nil {
		return err
	}
	notBits, err := oneMinusAll(ctx, c, bits)
	if err != nil {
		return err
	}

	// Round 2: select every slot of position i, EHL digests first, then
	// score columns, gate by gate.
	sel := newSelector(c)
	var is, js []*paillier.Ciphertext
	for k, g := range layer {
		I, J := work[g.i], work[g.j]
		base := len(is)
		is = append(append(is, I.EHL.Cts...), I.Scores...)
		js = append(append(js, J.EHL.Cts...), J.Scores...)
		if len(is) != len(js) {
			return fmt.Errorf("protocols: gate (%d, %d) joins items of different shapes", g.i, g.j)
		}
		for s := base; s < len(is); s++ {
			sel.add(bits[k], notBits[k], is[s], js[s])
		}
	}
	newI, err := sel.resolve(ctx)
	if err != nil {
		return err
	}
	newJ, err := divideAll(ctx, c, newI, is, js)
	if err != nil {
		return fmt.Errorf("protocols: compare-exchange complement: %w", err)
	}
	// Write the new items back. Each takes capped sub-slices of the fresh
	// result slices, so none shares storage with the caller's input.
	off := 0
	for _, g := range layer {
		e, n := len(work[g.i].EHL.Cts), len(work[g.i].Scores)
		work[g.i] = gateOutput(work[g.i].EHL.Kind, newI[off:off+e+n], e)
		work[g.j] = gateOutput(work[g.j].EHL.Kind, newJ[off:off+e+n], e)
		off += e + n
	}
	return nil
}

// gateOutput assembles an item from its resolved slots: the first e are
// EHL digests, the rest score columns.
func gateOutput(kind ehl.Kind, slots []*paillier.Ciphertext, e int) Item {
	return Item{
		EHL:    &ehl.List{Kind: kind, Cts: slots[:e:e]},
		Scores: slots[e:len(slots):len(slots)],
	}
}

// EncSelectTop partially orders items so positions 0..k-1 hold the top k
// by the key column (descending when desc, which is the engine's use:
// largest worst scores first). It runs k selection passes of sequential
// compare-exchange gates — O(k*l) gates, cheaper than a full sort for the
// small k of a top-k query and the alternative the efficiency analysis of
// Section 10.3 suggests. The remaining positions hold the leftovers in
// arbitrary order.
func EncSelectTop(ctx context.Context, c *cloud.Client, items []Item, col int, desc bool, k, magBits int) ([]Item, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	cols := len(items[0].Scores)
	if col < 0 || col >= cols {
		return nil, fmt.Errorf("protocols: selection column %d out of range", col)
	}
	if k < 0 {
		return nil, errors.New("protocols: negative k")
	}
	work := make([]Item, n)
	copy(work, items)
	if k > n {
		k = n
	}
	for p := 0; p < k; p++ {
		for i := p + 1; i < n; i++ {
			// Gate (p, i): keep the winner at position p.
			if err := runGateLayer(ctx, c, work, []gate{{p, i}}, col, desc, magBits+2); err != nil {
				return nil, err
			}
		}
	}
	return work, nil
}
