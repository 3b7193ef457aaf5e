package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/sectopk"
)

// goldenRelation is the rank-correlated relation of the exact-count
// golden row: every attribute falls with the row index.
func goldenRelation(n int) *sectopk.Relation {
	rel := &sectopk.Relation{Name: relationID}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{int64(3*n - 3*i), int64(2*n - 2*i + 1), int64(n - i + 2)})
	}
	return rel
}

// startSession stands up a rig over rel and a session on it.
func startSession(t *testing.T, w workload, in *inputs) *session {
	t.Helper()
	r, err := newRig(in.rel, w.shards, sectopk.Query{Attrs: []int{0, 1, 2}, K: queryK}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(context.Background(), w, r, in, 1)
	if err != nil {
		r.close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.close()
		if err := r.close(); err != nil {
			t.Errorf("serving loop: %v", err)
		}
	})
	return s
}

// TestGoldenRow reproduces the exact-count golden row through the
// benchmark's own rig and counters: rank-correlated data, 120 rows,
// k=3, m=3, 256-bit keys, strict halting, Qry_E halts at depth 4 after
// 42 S2 calls, and the batch scheduler ships exactly those 42 items.
func TestGoldenRow(t *testing.T) {
	s := startSession(t, workload{name: "golden", queriers: 1, shards: 1, modes: []sectopk.Mode{sectopk.ModeEliminate}}, &inputs{rel: goldenRelation(120), ranks: make([]int, 120)})
	before := readCounters(s.r.dc)
	rec := s.execute(context.Background(), 0, query{
		Query: sectopk.Query{Attrs: []int{0, 1, 2}, K: 3}, mode: sectopk.ModeEliminate})
	after := readCounters(s.r.dc)
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	if got := rec.ans.TopK.Depth; got != 4 {
		t.Errorf("depth %d, want 4", got)
	}
	if got := rec.ans.Traffic.S2Calls; got != 42 {
		t.Errorf("S2 calls %d, want 42", got)
	}
	if items := after.batchItems - before.batchItems; items != rec.ans.Traffic.S2Calls {
		t.Errorf("batch scheduler shipped %d items, answer reports %d S2 calls", items, rec.ans.Traffic.S2Calls)
	}
	s.checked = append(s.checked, rec)
	if err := s.checkAnswers(); err != nil {
		t.Fatal(err)
	}
}

// TestS2CallsMatchBatchItems runs short single-querier windows on the
// workload relation, every mode unsharded (with a writer beside it) and
// Qry_E over four shards, and asserts the exact S2-call accounting the benchmark
// checks on every single-querier run.
func TestS2CallsMatchBatchItems(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live queries")
	}
	for _, w := range []workload{
		{name: "serial", queriers: 1, shards: 1, writeRate: 5,
			modes: []sectopk.Mode{sectopk.ModeFull, sectopk.ModeEliminate, sectopk.ModeBatched}},
		{name: "sharded", queriers: 1, shards: 4, modes: []sectopk.Mode{sectopk.ModeEliminate}},
	} {
		t.Run(w.name, func(t *testing.T) {
			s := startSession(t, w, genInputs(1))
			win := s.measure(context.Background(), 2*time.Second)
			if n := countFailed(win); n > 0 {
				t.Fatalf("%d failed operations: %v", n, firstError(win))
			}
			b := &bench{w: w}
			if err := b.checkS2Calls(win); err != nil {
				t.Fatal(err)
			}
			if err := s.checkAnswers(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckTopK pins the oracle comparison: scores must match rank by
// rank, ids only where the score is not tied.
func TestCheckTopK(t *testing.T) {
	rel := &dataset.Relation{Rows: [][]int64{{9, 1}, {5, 5}, {7, 3}, {1, 1}, {4, 2}}}
	q := sectopk.Query{Attrs: []int{0, 1}, K: 3}
	// Scores: 10, 10, 10, 2, 6 -> top-3 all tied at 10.
	ok := []sectopk.Result{{Object: 2, Score: 10}, {Object: 0, Score: 10}, {Object: 1, Score: 10}}
	if err := checkTopK(rel, q, ok); err != nil {
		t.Fatalf("tied ids in any order: %v", err)
	}
	q.K = 4
	wrongID := []sectopk.Result{{Object: 0, Score: 10}, {Object: 1, Score: 10}, {Object: 2, Score: 10}, {Object: 3, Score: 6}}
	if err := checkTopK(rel, q, wrongID); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("object 3 for the untied rank-4 score: err %v, want a wrong answer", err)
	}
	wrongScore := []sectopk.Result{{Object: 0, Score: 10}, {Object: 1, Score: 10}, {Object: 2, Score: 10}, {Object: 3, Score: 2}}
	if err := checkTopK(rel, q, wrongScore); !errors.Is(err, errWrongAnswer) {
		t.Fatalf("rank-4 score 2 instead of 6: err %v, want a wrong answer", err)
	}
}

func TestCovered(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	win := interval{at(10), at(100)}
	ivs := []interval{{at(0), at(20)}, {at(15), at(30)}, {at(50), at(60)}, {at(95), at(200)}}
	if got, want := covered(win, ivs), 35*time.Millisecond; got != want {
		t.Fatalf("covered %v, want %v", got, want)
	}
}
