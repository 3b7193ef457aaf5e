package protocols

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// recoverTap is S1's link to S2 with a copy of every Recover round kept.
type recoverTap struct {
	next transport.Caller

	mu     sync.Mutex
	rounds [][2][]*big.Int // request, reply
}

func (r *recoverTap) Call(ctx context.Context, method string, req, resp any) error {
	if err := r.next.Call(ctx, method, req, resp); err != nil {
		return err
	}
	if method == cloud.MethodRecover {
		r.mu.Lock()
		r.rounds = append(r.rounds, [2][]*big.Int{req.(*cloud.RecoverRequest).Cts, resp.(*cloud.RecoverReply).Cts})
		r.mu.Unlock()
	}
	return nil
}

// checkRecoverFresh asserts that every ciphertext S2 returned from
// Recover is a fresh encryption: it differs from the inner ciphertext of
// the request it answers by a non-trivial encryption of zero. S1 unblinds
// a reply by dividing out its own blind, so a reply equal to the inner
// ciphertext would leave S1 holding exactly the selection input the
// hidden bit picked.
func checkRecoverFresh(t *testing.T, e *testEnv, tap *recoverTap) {
	t.Helper()
	pk := &e.keys.Paillier.PublicKey
	if len(tap.rounds) == 0 {
		t.Fatal("no Recover round observed")
	}
	for r, round := range tap.rounds {
		for i, c := range round[0] {
			inner, err := e.keys.DJ.DecryptInner(&dj.Ciphertext{C: c})
			if err != nil {
				t.Fatal(err)
			}
			reply := &paillier.Ciphertext{C: round[1][i]}
			if reply.C.Cmp(inner.C) == 0 {
				t.Fatalf("Recover round %d slot %d: S2 returned the inner ciphertext unchanged", r, i)
			}
			diff, err := pk.Sub(reply, inner)
			if err != nil {
				t.Fatal(err)
			}
			if m, err := e.keys.Paillier.Decrypt(diff); err != nil || m.Sign() != 0 {
				t.Fatalf("Recover round %d slot %d: reply encrypts a different plaintext (%v, %v)", r, i, m, err)
			}
		}
	}
}

// checkOutputsFresh asserts no output ciphertext equals one S1 held
// before the call.
func checkOutputsFresh(t *testing.T, in, out []*paillier.Ciphertext) {
	t.Helper()
	held := map[string]bool{}
	for _, ct := range in {
		held[ct.C.String()] = true
	}
	for i, ct := range out {
		if held[ct.C.String()] {
			t.Fatalf("output slot %d equals an input ciphertext", i)
		}
	}
}

// slots flattens items into their EHL digests and score columns.
func slots(items ...Item) []*paillier.Ciphertext {
	var out []*paillier.Ciphertext
	for _, it := range items {
		out = append(append(out, it.EHL.Cts...), it.Scores...)
	}
	return out
}

// TestSelectionOutputsAreFresh checks the four callers of the selection
// gadget: whatever S1 ends up holding after the call — the outputs and
// the selections it unblinded on the way — must not be one of the
// ciphertexts it held before, or S1 could read off the hidden
// comparison and equality bits.
func TestSelectionOutputsAreFresh(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	newClient := func(t *testing.T) (*cloud.Client, *recoverTap) {
		tap := &recoverTap{next: transport.NewLocal(e.server, nil)}
		c, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c, tap
	}
	items := func(t *testing.T) []Item {
		return []Item{e.item(t, 1, 5, 9), e.item(t, 2, 12, 14), e.item(t, 3, 3, 4), e.item(t, 4, 9, 9)}
	}

	t.Run("EncSelectTop", func(t *testing.T) {
		c, tap := newClient(t)
		in := items(t)
		out, err := EncSelectTop(ctx, c, in, ColWorst, true, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		checkOutputsFresh(t, slots(in...), slots(out...))
		checkRecoverFresh(t, e, tap)
	})
	t.Run("EncSort", func(t *testing.T) {
		c, tap := newClient(t)
		in := items(t)
		out, err := EncSort(ctx, c, in, ColWorst, false, 16)
		if err != nil {
			t.Fatal(err)
		}
		checkOutputsFresh(t, slots(in...), slots(out...))
		checkRecoverFresh(t, e, tap)
	})
	t.Run("SecWorstAll", func(t *testing.T) {
		c, tap := newClient(t)
		// Objects 7 and 9 each appear once, object 8 twice.
		depth := []DepthItem{
			{EHL: e.list(t, 7), Score: e.enc(t, 5)},
			{EHL: e.list(t, 8), Score: e.enc(t, 6)},
			{EHL: e.list(t, 8), Score: e.enc(t, 3)},
			{EHL: e.list(t, 9), Score: e.enc(t, 2)},
		}
		worst, err := SecWorstAll(ctx, c, depth)
		if err != nil {
			t.Fatal(err)
		}
		var in []*paillier.Ciphertext
		for _, d := range depth {
			in = append(append(in, d.EHL.Cts...), d.Score)
		}
		checkOutputsFresh(t, in, worst)
		checkRecoverFresh(t, e, tap)
	})
	t.Run("SecUpdate", func(t *testing.T) {
		for _, mode := range []cloud.DedupMode{cloud.DedupReplace, cloud.DedupEliminate} {
			t.Run(mode.String(), func(t *testing.T) {
				c, tap := newClient(t)
				T := []Item{e.item(t, 1, 10, 26), e.item(t, 2, 8, 26)}
				gamma := []Item{e.item(t, 2, 8, 22), e.item(t, 3, 7, 21)}
				out, err := SecUpdate(ctx, c, T, gamma, mode)
				if err != nil {
					t.Fatal(err)
				}
				checkOutputsFresh(t, slots(append(T, gamma...)...), slots(out...))
				checkRecoverFresh(t, e, tap)
			})
		}
	})
}

// recoveredCount sums the ciphertexts S2's ledger says it recovered.
func recoveredCount(t *testing.T, led *cloud.Ledger) int {
	t.Helper()
	total := 0
	for _, ev := range led.ByMethod(cloud.MethodRecover) {
		var n int
		if _, err := fmt.Sscanf(ev.Detail, "recovered %d blinded ciphertexts", &n); err != nil {
			t.Fatalf("unparseable Recover event %q: %v", ev.Detail, err)
		}
		total += n
	}
	return total
}

// TestGateRecoversOneSide pins the compare-exchange cost: one gate runs
// the selection gadget on position i only, so S2 recovers exactly one
// ciphertext per EHL digest and score column, and derives nothing.
func TestGateRecoversOneSide(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	led := e.server.Ledger()
	pair := []Item{e.item(t, 1, 5, 9), e.item(t, 2, 12, 14)}
	want := len(pair[0].EHL.Cts) + len(pair[0].Scores)

	for name, run := range map[string]func() ([]Item, error){
		"EncSelectTop": func() ([]Item, error) { return EncSelectTop(ctx, e.client, pair, ColWorst, true, 1, 16) },
		"EncSort":      func() ([]Item, error) { return EncSort(ctx, e.client, pair, ColWorst, true, 16) },
	} {
		t.Run(name, func(t *testing.T) {
			led.Reset()
			out, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if got := recoveredCount(t, led); got != want {
				t.Fatalf("one gate recovered %d ciphertexts, want S + cols = %d", got, want)
			}
			// The derived side is exact: the pair's multiset survives.
			if hi, lo := e.dec(t, out[0].Scores[0]), e.dec(t, out[1].Scores[0]); hi != 12 || lo != 5 {
				t.Fatalf("gate output keys (%d, %d), want (12, 5)", hi, lo)
			}
			if hi, lo := e.dec(t, out[0].Scores[1]), e.dec(t, out[1].Scores[1]); hi != 14 || lo != 9 {
				t.Fatalf("gate payload (%d, %d), want (14, 9)", hi, lo)
			}
			for i, obj := range []uint64{2, 1} {
				if got, ok := e.revealObj(t, out[i].EHL, []uint64{1, 2}); !ok || got != obj {
					t.Fatalf("position %d carries object %d (%v), want %d", i, got, ok, obj)
				}
			}
		})
	}
}
