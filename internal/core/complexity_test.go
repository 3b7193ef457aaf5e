package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/transport"
)

// TestRoundComplexityPerDepth pins down the interaction structure the
// batched sub-protocols promise: the per-depth pipeline (SecWorst +
// SecBest + SecDedup + SecUpdate) costs a constant number of protocol
// rounds regardless of depth, and only the ranking/halting stage scales
// with k and |T|. This is the property that makes the scheme usable over
// a real WAN link (Section 11.2.5's conclusion).
func TestRoundComplexityPerDepth(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	pipelineRounds := func(maxDepth int) int64 {
		stats := transport.NewStats()
		client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(client, er)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, Halt: HaltPaper, MaxDepth: maxDepth}); err != nil {
			t.Fatal(err)
		}
		// Pipeline methods only (ranking uses Compare/CompareHidden and
		// its own Recover calls, which scale with k and |T|).
		return stats.Method(cloud.MethodEqBits).Calls + stats.Method(cloud.MethodDedup).Calls
	}
	// The Figure 3 query halts at depth 3, so measure strictly below it.
	r2 := pipelineRounds(2)
	r3 := pipelineRounds(3)
	// Steady state per depth: EqBits for SecWorst(1) + SecBest(1) +
	// SecUpdate (1), plus Dedup for the per-depth dedup(1) and SecUpdate's
	// bipartite dedup(1) = 5 rounds. Depth one skips SecUpdate's two
	// rounds (T is empty): 3 rounds.
	if perDepth := r3 - r2; perDepth != 5 {
		t.Fatalf("pipeline rounds per depth = %d, want 5 (r2=%d r3=%d)", perDepth, r2, r3)
	}
	if r2 != 3+5 {
		t.Fatalf("two-depth pipeline rounds = %d, want 8", r2)
	}
}

// TestRankingGatesScaleWithK confirms the other side of the complexity
// split at the protocols level: the oblivious top-k selection pays
// O(k*|T|) comparison gates. Measured on a fixed item list so halting
// behaviour cannot confound the count (which it does inside a full
// query run).
func TestRankingGatesScaleWithK(t *testing.T) {
	r := getRig(t)
	hasher := newTestItems(t, r)
	gates := func(k int) int64 {
		stats := transport.NewStats()
		client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := protocols.EncSelectTop(context.Background(), client, hasher, 0, true, k, 16); err != nil {
			t.Fatal(err)
		}
		return stats.Method(cloud.MethodCompareHidden).Calls
	}
	g1 := gates(1)
	g3 := gates(3)
	if g3 <= g1 {
		t.Fatalf("selection gates should grow with k: k=1 %d vs k=3 %d", g1, g3)
	}
	// Exact counts: selection pass p touches len-1-p items, one hidden
	// comparison round per gate.
	n := int64(len(hasher))
	if g1 != n-1 {
		t.Fatalf("k=1 gates = %d, want %d", g1, n-1)
	}
	if g3 != (n-1)+(n-2)+(n-3) {
		t.Fatalf("k=3 gates = %d, want %d", g3, (n-1)+(n-2)+(n-3))
	}
}

// newTestItems builds a small list of protocol items for gate counting.
func newTestItems(t *testing.T, r *testRig) []protocols.Item {
	t.Helper()
	er := encryptFig3(t, r)
	items := make([]protocols.Item, 0, 5)
	for d := 0; d < 5; d++ {
		it := er.Lists[0][d]
		items = append(items, protocols.Item{
			EHL:    it.EHL,
			Scores: []*paillier.Ciphertext{it.Score},
		})
	}
	return items
}

// selectionGates is the gate count of EncSelectTop choosing s of n items:
// pass p compares position p with each of the n-1-p positions after it.
func selectionGates(n, s int) int64 {
	var g int64
	for p := 0; p < s && p < n; p++ {
		g += int64(n - 1 - p)
	}
	return g
}

// TestHaltingRanksWhatItReads pins how many positions each halting policy
// ranks. HaltStrict compares every tail bound in any order, so its checks
// and finalize select the top k; HaltPaper reads the (k+1)-th item's bound
// and selects k+1. A gate is one hidden-comparison round plus one
// recovery round, so each gate strict halting skips saves exactly 2
// rounds against ranking k+1; k1Rounds is what the same query cost when
// strict halting still ranked k+1.
func TestHaltingRanksWhatItReads(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	const k = 2
	for _, tc := range []struct {
		name string
		opts Options
		// sizes is |T| at every ranking: Qry_F's replace-mode dedup grows
		// T by m = 3 per depth; Qry_Ba's merges keep 4 and then 5 objects.
		// A scan cut by MaxDepth ranks once more in finalize.
		sizes    []int
		sel      int
		rounds   int64
		k1Rounds int64
	}{
		{"QryF/strict", Options{Mode: QryF, Halt: HaltStrict}, []int{3, 6, 9, 12}, k, 129, 165},
		{"QryF/strict/finalize", Options{Mode: QryF, Halt: HaltStrict, MaxDepth: 2}, []int{3, 6, 6}, k, 57, 69},
		{"QryBa/strict", Options{Mode: QryBa, Halt: HaltStrict, BatchDepth: 2}, []int{4, 5}, k, 30, 36},
		{"QryF/paper", Options{Mode: QryF, Halt: HaltPaper}, []int{3, 6, 9}, k + 1, 96, 96},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats := transport.NewStats()
			led := cloud.NewLedger()
			client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), led)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(client, er)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := engine.SecQuery(context.Background(), tk, tc.opts); err != nil {
				t.Fatal(err)
			}
			if tc.opts.Mode == QryBa {
				var kept []int
				for _, ev := range led.ByMethod(cloud.MethodDedup) {
					var n, of int
					if _, err := fmt.Sscanf(ev.Detail, "uniqueness pattern: %d of %d items kept", &n, &of); err != nil {
						t.Fatal(err)
					}
					kept = append(kept, n)
				}
				if fmt.Sprint(kept) != fmt.Sprint(tc.sizes) {
					t.Fatalf("merges kept %v items, want %v", kept, tc.sizes)
				}
			}
			var want, k1 int64
			for _, n := range tc.sizes {
				want += selectionGates(n, tc.sel)
				k1 += selectionGates(n, k+1)
			}
			gates := stats.Method(cloud.MethodCompareHidden).Calls
			if gates != want {
				t.Fatalf("%d gates, want %d (selecting %d at sizes %v)", gates, want, tc.sel, tc.sizes)
			}
			rounds := stats.Rounds()
			if rounds != tc.rounds {
				t.Fatalf("%d rounds, want %d", rounds, tc.rounds)
			}
			if skipped := k1 - gates; rounds+2*skipped != tc.k1Rounds {
				t.Fatalf("%d rounds + 2 x %d skipped gates != %d rounds when ranking k+1", rounds, skipped, tc.k1Rounds)
			}
		})
	}
}
