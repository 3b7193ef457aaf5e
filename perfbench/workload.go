package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/sectopk"
)

// Shared input shape of every workload: a strongly correlated Gaussian
// relation, so strict-halting queries stop after a few depths, and small
// query shapes (3 attributes, k=3) so one query stays well under a
// second at 256-bit keys.
const (
	keyBits     = 256
	relRows     = 200
	relAttrs    = 4
	correlation = 0.995
	maxScore    = 1000
	queryAttrs  = 3
	queryK      = 3
	relationID  = "bench"
	// compactEvery is the writer's schedule: every compactEvery-th write
	// is a Client.Compact, the others are single-row UpdateScores deltas.
	compactEvery = 10
	// probeWrites is the closed-loop write probe run after the timed
	// window on workloads without a writer, so every workload reports
	// the write metrics; probeGap paces it over a few seconds, so one
	// moment's host load does not set the whole sample.
	probeWrites = 200
	probeGap    = 10 * time.Millisecond
)

// workload is one named traffic mix.
type workload struct {
	name string
	// queriers is the closed-loop querier count, one client connection
	// each; 0 means one per core.
	queriers int
	// shards is the owner's WithShards partition count.
	shards int
	// modes are the query modes; with more than one, each block of
	// len(modes) queries runs every mode once in a seeded order.
	modes []sectopk.Mode
	// writeRate is the open-loop writer's rate in writes per second
	// (0 = no writer during the window).
	writeRate float64
	// queryTail and writeTail are the tail percentiles reported: each
	// keeps at least ten samples beyond it at the benchmark's run length,
	// and queryTail sits inside one mode's group of the query mix rather
	// than on the boundary between two.
	queryTail, writeTail float64
	// countN is how many of querier 0's queries, from the start of each
	// window, the exact counts average over (the same queries on every
	// run of a seed). 0 — with several queriers, whose S1-S2 traffic
	// interleaves — averages window totals over all answered queries.
	countN int
}

var workloads = []workload{
	{name: "topk-serial", queriers: 1, shards: 1,
		modes:     []sectopk.Mode{sectopk.ModeFull, sectopk.ModeEliminate, sectopk.ModeBatched},
		queryTail: 80, writeTail: 90, countN: 18},
	{name: "topk-concurrent", queriers: 0, shards: 1,
		modes:     []sectopk.Mode{sectopk.ModeEliminate},
		queryTail: 90, writeTail: 90},
	{name: "topk-sharded", queriers: 1, shards: 4,
		modes:     []sectopk.Mode{sectopk.ModeEliminate},
		queryTail: 50, writeTail: 90, countN: 6},
	{name: "topk-mixed-write", queriers: 1, shards: 1,
		modes:     []sectopk.Mode{sectopk.ModeEliminate},
		writeRate: 5, queryTail: 85, writeTail: 80, countN: 24},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if w.queriers == 0 {
				w.queriers = runtime.NumCPU()
			}
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputs are one seed's relation plus each row's quality rank, which
// the writer keeps when it replaces a row.
type inputs struct {
	rel   *sectopk.Relation
	ranks []int
}

// genInputs draws the workload relation from the seed.
func genInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{rel: &sectopk.Relation{Name: relationID, Rows: make([][]int64, relRows)}, ranks: rng.Perm(relRows)}
	for i, rank := range in.ranks {
		in.rel.Rows[i] = drawRow(rng, rank)
	}
	return in
}

// drawRow draws one row of the synthetic Gaussian shape: every
// attribute blends a Gaussian value with the row's quality, which sets
// the cross-attribute correlation. Qualities are stratified — the row
// at rank r draws from [r+0.4, r+0.6)/relRows — and the Gaussian part
// stays well below the gap between neighbouring ranks, so every seed
// gives every query of a (mode, attribute count) the same halting depth
// and S2 calls. With independent uniform qualities, or a correlation of
// 0.97-0.99, some seeds put two top rows within the noise of each other
// and their queries scan deeper, with up to 4x the S2 calls.
func drawRow(rng *rand.Rand, rank int) []int64 {
	quality := (float64(rank) + 0.4 + 0.2*rng.Float64()) / relRows
	row := make([]int64, relAttrs)
	for j := range row {
		base := clamp(rng.NormFloat64()*maxScore/6+maxScore/2, 0, maxScore)
		row[j] = int64(clamp((1-correlation)*base+correlation*quality*maxScore, 0, maxScore))
	}
	return row
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// query is one generated top-k query.
type query struct {
	sectopk.Query
	mode sectopk.Mode
}

// queryGen draws one querier's query stream.
type queryGen struct {
	rng   *rand.Rand
	modes []sectopk.Mode
	// block is the rest of the current stratum: every mode once, in a
	// seeded order, so every run's mode mix has the same composition and
	// the median and tail fall inside one mode's group whatever the seed.
	block []sectopk.Mode
}

// newQueryGen starts the query stream of one querier; stream numbers
// keep the warm-up's stream apart from the windows'.
func newQueryGen(seed int64, stream int, modes []sectopk.Mode) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed*7919 + int64(stream) + 1)), modes: modes}
}

// next draws the query: 3 of the 4 attributes, weights in 1..4 and
// k=3. Fresh weights keep tokens from repeating across queries. Every
// query uses 3 attributes: 2-attribute queries run about 20% faster, and
// mixing the two put the median on the boundary between the groups.
func (g *queryGen) next() query {
	if len(g.block) == 0 {
		for _, i := range g.rng.Perm(len(g.modes)) {
			g.block = append(g.block, g.modes[i])
		}
	}
	qq := query{mode: g.block[0]}
	g.block = g.block[1:]
	qq.Attrs = g.rng.Perm(relAttrs)[:queryAttrs]
	sort.Ints(qq.Attrs)
	qq.Weights = make([]int64, queryAttrs)
	for i := range qq.Weights {
		qq.Weights[i] = 1 + g.rng.Int63n(4)
	}
	qq.K = queryK
	return qq
}

// rowGen draws replacement rows from the relation's own generator, at
// the replaced row's quality rank, so the relation's shape (and with it
// the halting depth) stays stationary under writes.
type rowGen struct {
	rng   *rand.Rand
	ranks []int
}

func newRowGen(seed int64, ranks []int) *rowGen {
	return &rowGen{rng: rand.New(rand.NewSource(seed*104729 + 17)), ranks: ranks}
}

// next returns the target object id and its replacement row.
func (g *rowGen) next() (int, []int64) {
	id := g.rng.Intn(len(g.ranks))
	return id, drawRow(g.rng, g.ranks[id])
}
