package cloud

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/secerr"
	"repro/internal/transport"
	"repro/internal/zmath"
)

// KeyMaterial is the secret key material the data owner provisions to the
// crypto cloud S2 (Algorithm 2 line 10): the Paillier key pair and the
// derived degree-2 Damgård-Jurik key.
type KeyMaterial struct {
	Paillier *paillier.PrivateKey
	DJ       *dj.PrivateKey
}

// NewKeyMaterial generates fresh key material with the given Paillier
// modulus size.
func NewKeyMaterial(bits int) (*KeyMaterial, error) {
	sk, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return KeyMaterialFromPaillier(sk)
}

// KeyMaterialFromPaillier derives the DJ key from an existing Paillier key.
func KeyMaterialFromPaillier(sk *paillier.PrivateKey) (*KeyMaterial, error) {
	djSK, err := dj.NewPrivateKey(sk, 2)
	if err != nil {
		return nil, err
	}
	return &KeyMaterial{Paillier: sk, DJ: djSK}, nil
}

// Server is the crypto cloud S2. It implements transport.Responder; each
// Serve call is one protocol round. The server is stateless across rounds
// apart from the leakage ledger and the nonce-precompute pools.
//
// Every per-ciphertext loop in the handlers runs on the shared parallel
// substrate, bounded by the WithParallelism option; encryptions draw from
// background nonce pools unless pooling is disabled (parallelism 1, or
// WithoutNoncePools).
type Server struct {
	keys   *KeyMaterial
	ledger *Ledger
	par    int
	pkEnc  paillier.Encryptor
	djEnc  dj.Encryptor

	closeMu sync.Mutex // guards close
	close   []func()
}

// NewServer builds S2 from its key material. ledger may be nil. Call Close
// when done to release the background nonce pools.
func NewServer(keys *KeyMaterial, ledger *Ledger, opts ...Option) (*Server, error) {
	if keys == nil || keys.Paillier == nil || keys.DJ == nil {
		return nil, errors.New("cloud: incomplete key material")
	}
	cfg := buildConfig(opts)
	s := &Server{keys: keys, ledger: ledger, par: cfg.parallelism}
	// S2 holds both private keys, so its surfaces default to the CRT
	// nonce fast path (fast-nonce table when opted in).
	var closer func()
	var err error
	s.pkEnc, closer, err = cfg.newPaillierEnc(&keys.Paillier.PublicKey, keys.Paillier)
	if err != nil {
		return nil, err
	}
	if closer != nil {
		s.close = append(s.close, closer)
	}
	s.djEnc, closer, err = cfg.newDJEnc(&keys.DJ.PublicKey, keys.DJ)
	if err != nil {
		s.Close()
		return nil, err
	}
	if closer != nil {
		s.close = append(s.close, closer)
	}
	return s, nil
}

// Close stops the server's background nonce pools. The server stays usable
// afterwards (encryptions compute nonces inline).
func (s *Server) Close() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	for _, c := range s.close {
		c()
	}
	s.close = nil
}

// Ledger returns the server's leakage ledger (may be nil).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Parallelism returns the server's parallelism knob (0 = all cores).
func (s *Server) Parallelism() int { return s.par }

// decryptRaw decrypts a batch of raw ciphertext values in parallel via
// the paillier batch helper. Nil or out-of-group values — which a hostile
// peer can inject freely, since the body is attacker-controlled gob —
// surface as bad-request errors, never panics.
func (s *Server) decryptRaw(cts []*big.Int, label string) ([]*big.Int, error) {
	wrapped := make([]*paillier.Ciphertext, len(cts))
	for i, c := range cts {
		if c == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: %s: nil ciphertext at %d", label, i)
		}
		wrapped[i] = &paillier.Ciphertext{C: c}
	}
	out, err := s.keys.Paillier.DecryptBatch(wrapped, s.par)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: %s", label)
	}
	return out, nil
}

// decodeRequest decodes the typed request for a protocol method and
// reports the relation it names. Hello is handled by the dispatch layers
// directly and is not a relation-scoped request.
func decodeRequest(method string, body []byte) (relationRequest, error) {
	var req relationRequest
	switch method {
	case MethodEqBits:
		req = new(EqBitsRequest)
	case MethodRecover:
		req = new(RecoverRequest)
	case MethodCompare:
		req = new(CompareRequest)
	case MethodCompareHidden:
		req = new(CompareHiddenRequest)
	case MethodMult:
		req = new(MultRequest)
	case MethodDedup:
		req = new(DedupRequest)
	case MethodFilter:
		req = new(FilterRequest)
	default:
		return nil, secerr.New(secerr.CodeUnknownMethod, "cloud: unknown method %q", method)
	}
	if err := transport.Decode(body, req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: decoding %s", method)
	}
	return req, nil
}

// Serve implements transport.Responder for a single-relation deployment:
// the relation ID carried by requests is accepted verbatim. Multi-relation
// deployments wrap Servers in a Service, which routes on the relation ID.
func (s *Server) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case MethodHello:
		var req HelloRequest
		if err := transport.Decode(body, &req); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: decoding %s", method)
		}
		resp, err := s.hello(&req)
		if err != nil {
			return nil, err
		}
		return transport.Encode(resp)
	case MethodBatch:
		return serveBatch(ctx, body, s.par, s.Serve)
	}
	req, err := decodeRequest(method, body)
	if err != nil {
		return nil, err
	}
	return s.handle(ctx, req)
}

// hello answers the version-negotiation round. A single-relation Server
// serves whatever relation the peer names, so only the version is checked.
func (s *Server) hello(req *HelloRequest) (*HelloReply, error) {
	if err := acceptVersion(req.Version); err != nil {
		return nil, err
	}
	return &HelloReply{Version: negotiateVersion(req.Version)}, nil
}

// acceptVersion checks a peer's announced wire version against the range
// this build speaks.
func acceptVersion(v int) error {
	if v < transport.MinProtocolVersion || v > transport.ProtocolVersion {
		return secerr.New(secerr.CodeProtocolVersion,
			"cloud: peer speaks wire protocol v%d, this side v%d..v%d",
			v, transport.MinProtocolVersion, transport.ProtocolVersion)
	}
	return nil
}

// negotiateVersion picks the version both sides speak: the lower of the
// peer's announcement and this build's maximum.
func negotiateVersion(peer int) int {
	if peer < transport.ProtocolVersion {
		return peer
	}
	return transport.ProtocolVersion
}

// serveBatch unwraps a batch envelope and dispatches every item through
// the given single-call dispatcher, fanning items out over the worker
// budget. Item failures are reported per item as structured (code,
// message) pairs — one malformed item never fails its neighbours — and
// envelopes must not nest.
func serveBatch(ctx context.Context, body []byte, par int, dispatch func(context.Context, string, []byte) ([]byte, error)) ([]byte, error) {
	var req BatchRequest
	if err := transport.Decode(body, &req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: decoding %s", MethodBatch)
	}
	reply := BatchReply{Items: make([]BatchResult, len(req.Items))}
	err := parallel.ForEachCtx(ctx, par, len(req.Items), func(i int) error {
		item := req.Items[i]
		if item.Method == MethodBatch {
			reply.Items[i] = BatchResult{ErrCode: string(secerr.CodeBadRequest), ErrMsg: "cloud: nested batch envelope"}
			return nil
		}
		out, herr := dispatch(ctx, item.Method, item.Body)
		if herr != nil {
			reply.Items[i] = BatchResult{ErrCode: string(secerr.CodeOf(herr)), ErrMsg: herr.Error()}
			return nil
		}
		reply.Items[i] = BatchResult{Body: out}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return transport.Encode(&reply)
}

// handle dispatches a decoded request to its handler and encodes the
// reply.
func (s *Server) handle(ctx context.Context, req relationRequest) ([]byte, error) {
	var (
		resp any
		err  error
	)
	switch r := req.(type) {
	case *EqBitsRequest:
		resp, err = s.eqBits(ctx, r)
	case *RecoverRequest:
		resp, err = s.recover(r)
	case *CompareRequest:
		resp, err = s.compare(r)
	case *CompareHiddenRequest:
		resp, err = s.compareHidden(ctx, r)
	case *MultRequest:
		resp, err = s.mult(ctx, r)
	case *DedupRequest:
		resp, err = s.dedup(ctx, r)
	case *FilterRequest:
		resp, err = s.filter(ctx, r)
	default:
		err = secerr.New(secerr.CodeUnknownMethod, "cloud: unroutable request %T", req)
	}
	if err != nil {
		return nil, err
	}
	return transport.Encode(resp)
}

// eqBits decrypts each randomized EHL difference and answers E2(t),
// t = 1 iff the difference is zero (Algorithm 4, server side). The
// decryptions and the reply encryptions each fan out over the worker pool.
func (s *Server) eqBits(ctx context.Context, req *EqBitsRequest) (*EqBitsReply, error) {
	ms, err := s.decryptRaw(req.Cts, "EqBits")
	if err != nil {
		return nil, err
	}
	ts := make([]*big.Int, len(ms))
	equal := 0
	for i, m := range ms {
		if m.Sign() == 0 {
			ts[i] = zmath.One
			equal++
		} else {
			ts[i] = zmath.Zero
		}
	}
	out := make([]*big.Int, len(ts))
	err = parallel.ForEachCtx(ctx, s.par, len(ts), func(i int) error {
		ct, err := s.djEnc.Encrypt(ts[i])
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodEqBits, "equality pattern: %d equal of %d pairs", equal, len(req.Cts))
	return &EqBitsReply{Bits: out}, nil
}

// recover strips the outer DJ layer from each blinded double encryption
// (Algorithm 5, server side) and re-randomizes the result.
func (s *Server) recover(req *RecoverRequest) (*RecoverReply, error) {
	wrapped := make([]*dj.Ciphertext, len(req.Cts))
	for i, c := range req.Cts {
		if c == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Recover: nil ciphertext at %d", i)
		}
		wrapped[i] = &dj.Ciphertext{C: c}
	}
	inner, err := s.keys.DJ.DecryptInnerBatch(wrapped, s.par)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Recover")
	}
	// Re-randomize every recovered ciphertext. Without the fresh Enc(0),
	// S1's unblinding would leave it holding a ciphertext byte-identical
	// to one of its own selection inputs, and so the hidden selection bit.
	out := make([]*big.Int, len(inner))
	err = parallel.ForEach(s.par, len(inner), func(i int) error {
		ct, err := s.pkEnc.Rerandomize(inner[i])
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodRecover, "recovered %d blinded ciphertexts", len(req.Cts))
	return &RecoverReply{Cts: out}, nil
}

// compare decrypts each sign-blinded difference and reports its sign.
func (s *Server) compare(req *CompareRequest) (*CompareReply, error) {
	ms, err := s.decryptRaw(req.Cts, "Compare")
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(ms))
	for i, m := range ms {
		out[i] = zmath.IsNegative(m, s.keys.Paillier.N)
	}
	s.ledger.Record("S2", MethodCompare, "compared %d blinded differences", len(req.Cts))
	return &CompareReply{Neg: out}, nil
}

// compareHidden is compare with the result bit re-encrypted under DJ so
// S1 learns nothing either.
func (s *Server) compareHidden(ctx context.Context, req *CompareHiddenRequest) (*CompareHiddenReply, error) {
	ms, err := s.decryptRaw(req.Cts, "CompareHidden")
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(ms))
	err = parallel.ForEachCtx(ctx, s.par, len(ms), func(i int) error {
		t := zmath.Zero
		if zmath.IsNegative(ms[i], s.keys.Paillier.N) {
			t = zmath.One
		}
		ct, err := s.djEnc.Encrypt(t)
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodCompareHidden, "compared %d blinded differences (hidden)", len(req.Cts))
	return &CompareHiddenReply{Bits: out}, nil
}

// mult decrypts blinded factor pairs and returns the encrypted products;
// S1 strips the cross terms.
func (s *Server) mult(ctx context.Context, req *MultRequest) (*MultReply, error) {
	if len(req.A) != len(req.B) {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult length mismatch %d vs %d", len(req.A), len(req.B))
	}
	for i := range req.A {
		if req.A[i] == nil || req.B[i] == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult: nil ciphertext at %d", i)
		}
	}
	pk := &s.keys.Paillier.PublicKey
	out := make([]*big.Int, len(req.A))
	err := parallel.ForEachCtx(ctx, s.par, len(req.A), func(i int) error {
		a, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.A[i]})
		if err != nil {
			return fmt.Errorf("cloud: Mult a[%d]: %w", i, err)
		}
		b, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.B[i]})
		if err != nil {
			return fmt.Errorf("cloud: Mult b[%d]: %w", i, err)
		}
		var prod *big.Int
		if eng := pk.EngineN(); eng != nil {
			prod = eng.MulMod(a, b)
		} else {
			prod = new(big.Int).Mul(a, b)
			prod.Mod(prod, pk.N)
		}
		ct, err := s.pkEnc.Encrypt(prod)
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodMult, "multiplied %d blinded pairs", len(req.A))
	return &MultReply{Products: out}, nil
}

// unionFind is a tiny disjoint-set for grouping equal rows.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra < rb {
			u.parent[rb] = ra
		} else {
			u.parent[ra] = rb
		}
	}
}

func (s *Server) validateDedup(req *DedupRequest) error {
	n := len(req.Rows)
	if len(req.PairI) != len(req.PairJ) || len(req.PairI) != len(req.PairCts) {
		return errors.New("cloud: Dedup pair arrays have mismatched lengths")
	}
	for k := range req.PairI {
		if req.PairI[k] < 0 || req.PairI[k] >= n || req.PairJ[k] < 0 || req.PairJ[k] >= n {
			return fmt.Errorf("cloud: Dedup pair %d out of range", k)
		}
		if req.PairCts[k] == nil {
			return fmt.Errorf("cloud: Dedup pair %d has nil ciphertext", k)
		}
	}
	for i, r := range req.Rows {
		if len(r.Blinds) != len(r.EHL)+len(r.Scores) {
			return fmt.Errorf("cloud: Dedup row %d blind vector length %d != %d slots",
				i, len(r.Blinds), len(r.EHL)+len(r.Scores))
		}
		if err := validateRow(&r, i); err != nil {
			return err
		}
		if n > 0 && (len(r.EHL) != len(req.Rows[0].EHL) || len(r.Scores) != len(req.Rows[0].Scores)) {
			return fmt.Errorf("cloud: Dedup row %d shape differs from row 0", i)
		}
	}
	if req.Mode == DedupMerge {
		cols := 0
		if n > 0 {
			cols = len(req.Rows[0].Scores)
		}
		for _, c := range req.MergeCols {
			if c < 0 || c >= cols {
				return fmt.Errorf("cloud: Dedup merge column %d out of range", c)
			}
		}
	}
	return nil
}

// dedup is the S2 side of SecDedup (Algorithm 7 lines 16-31) and its
// SecDupElim / merge variants. Rows arrive blinded and permuted by S1;
// the equality pattern of the permuted pair set is the only thing S2
// learns (the leakage EP^d of Section 9). The pair decryptions, sentinel
// construction, and re-blinding all fan out over the worker pool.
func (s *Server) dedup(ctx context.Context, req *DedupRequest) (*DedupReply, error) {
	if err := s.validateDedup(req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Dedup")
	}
	pk := &s.keys.Paillier.PublicKey
	ephPK, err := paillier.NewPublicKeyFromN(req.EphemeralN)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Dedup ephemeral key")
	}
	n := len(req.Rows)
	pairMs, err := s.decryptRaw(req.PairCts, "Dedup pair")
	if err != nil {
		return nil, err
	}
	uf := newUnionFind(n)
	equalPairs := 0
	for k, m := range pairMs {
		if m.Sign() == 0 {
			uf.union(req.PairI[k], req.PairJ[k])
			equalPairs++
		}
	}
	// Group rows; the representative is the smallest index in the
	// (already random) permuted order, so the choice carries no signal.
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	s.ledger.Record("S2", MethodDedup, "mode=%s rows=%d equal-pairs=%d groups=%d",
		req.Mode, n, equalPairs, len(groups))

	sentinel := new(big.Int).Sub(pk.N, zmath.One) // Z = N-1 ≡ -1

	// Replace mode rebuilds every duplicate as a sentinel row; those rows
	// are independent, so construct them ahead of assembly in parallel.
	var sentinels []*WireRow
	if req.Mode == DedupReplace {
		sentinels = make([]*WireRow, n)
		var dups []int
		for i := 0; i < n; i++ {
			if groups[uf.find(i)][0] != i {
				dups = append(dups, i)
			}
		}
		err := parallel.ForEachCtx(ctx, s.par, len(dups), func(k int) error {
			i := dups[k]
			repl, err := s.sentinelRow(pk, ephPK, len(req.Rows[i].EHL), len(req.Rows[i].Scores), sentinel)
			if err != nil {
				return err
			}
			sentinels[i] = repl
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Assemble the surviving rows (pre re-blinding).
	var rows []WireRow
	for i := 0; i < n; i++ {
		root := uf.find(i)
		members := groups[root]
		isRep := members[0] == i
		switch req.Mode {
		case DedupReplace:
			if isRep {
				rows = append(rows, req.Rows[i])
				continue
			}
			// Replace with a random id and sentinel scores; the recorded
			// blinds are fresh so S1's unblinding yields uniformly random
			// digests and the sentinel value Z.
			rows = append(rows, *sentinels[i])
		case DedupEliminate:
			if isRep {
				rows = append(rows, req.Rows[i])
			}
		case DedupMerge:
			if !isRep {
				continue
			}
			merged := req.Rows[i]
			if len(members) > 1 {
				mergedCopy := WireRow{
					EHL:    append([]*big.Int(nil), merged.EHL...),
					Scores: append([]*big.Int(nil), merged.Scores...),
					Blinds: append([]*big.Int(nil), merged.Blinds...),
				}
				for _, col := range req.MergeCols {
					for _, other := range members[1:] {
						// Homomorphic sum of blinded scores...
						mergedCopy.Scores[col] = mulModN2(pk, mergedCopy.Scores[col], req.Rows[other].Scores[col])
						// ...and of their blinds under the ephemeral key.
						bIdx := len(merged.EHL) + col
						mergedCopy.Blinds[bIdx] = mulModN2(ephPK, mergedCopy.Blinds[bIdx], req.Rows[other].Blinds[bIdx])
					}
				}
				merged = mergedCopy
			}
			rows = append(rows, merged)
		default:
			return nil, fmt.Errorf("cloud: unknown dedup mode %d", req.Mode)
		}
	}

	// Re-blind every surviving row (Algorithm 7 lines 26-30) so S1 cannot
	// tell which rows were touched, then re-permute (line 31). Rows are
	// independent, so the re-blinding fans out row-per-worker.
	err = parallel.ForEachCtx(ctx, s.par, len(rows), func(i int) error {
		return s.reblindRow(pk, ephPK, &rows[i])
	})
	if err != nil {
		return nil, err
	}
	perm, err := prf.RandomPerm(len(rows))
	if err != nil {
		return nil, err
	}
	out := make([]WireRow, len(rows))
	for i := range rows {
		out[perm[i]] = rows[i]
	}
	return &DedupReply{Rows: out}, nil
}

// mulModN2 multiplies two ciphertext group elements mod pk.N^2 through the
// key's Montgomery engine when it carries one, falling back to a plain
// big.Int multiply-and-reduce. Both paths return the canonical residue.
func mulModN2(pk *paillier.PublicKey, a, b *big.Int) *big.Int {
	if eng := pk.EngineN2(); eng != nil {
		return eng.MulMod(a, b)
	}
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, pk.N2)
}

// sentinelRow builds the replacement row for a duplicate in Replace mode:
// random id digests and sentinel scores Z, with fresh recorded blinds.
func (s *Server) sentinelRow(pk, ephPK *paillier.PublicKey, ehlWidth, scoreCols int, sentinel *big.Int) (*WireRow, error) {
	row := WireRow{
		EHL:    make([]*big.Int, ehlWidth),
		Scores: make([]*big.Int, scoreCols),
		Blinds: make([]*big.Int, ehlWidth+scoreCols),
	}
	for j := 0; j < ehlWidth; j++ {
		u, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		alpha, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		// Store Enc(u + alpha); after S1 subtracts alpha the digest is the
		// uniformly random u.
		ct, err := s.pkEnc.Encrypt(new(big.Int).Add(u, alpha))
		if err != nil {
			return nil, err
		}
		row.EHL[j] = ct.C
		bct, err := ephPK.Encrypt(alpha)
		if err != nil {
			return nil, err
		}
		row.Blinds[j] = bct.C
	}
	for j := 0; j < scoreCols; j++ {
		beta, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		ct, err := s.pkEnc.Encrypt(new(big.Int).Add(sentinel, beta))
		if err != nil {
			return nil, err
		}
		row.Scores[j] = ct.C
		bct, err := ephPK.Encrypt(beta)
		if err != nil {
			return nil, err
		}
		row.Blinds[ehlWidth+j] = bct.C
	}
	return &row, nil
}

// reblindRow adds fresh additive blinds to every slot of the row and
// accumulates them into the recorded blind vector, re-randomizing all
// ciphertexts in the process.
func (s *Server) reblindRow(pk, ephPK *paillier.PublicKey, row *WireRow) error {
	apply := func(slot **big.Int, blind **big.Int) error {
		delta, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		dct, err := s.pkEnc.Encrypt(delta)
		if err != nil {
			return err
		}
		*slot = mulModN2(pk, *slot, dct.C)
		bct, err := ephPK.Encrypt(delta)
		if err != nil {
			return err
		}
		*blind = mulModN2(ephPK, *blind, bct.C)
		return nil
	}
	for j := range row.EHL {
		if err := apply(&row.EHL[j], &row.Blinds[j]); err != nil {
			return err
		}
	}
	for j := range row.Scores {
		if err := apply(&row.Scores[j], &row.Blinds[len(row.EHL)+j]); err != nil {
			return err
		}
	}
	return nil
}

// filter is the S2 side of SecFilter (Algorithm 12 lines 11-23): drop the
// rows whose multiplicatively blinded join score decrypts to zero, then
// re-blind and re-permute the survivors. Score decryptions and per-row
// re-blinding fan out over the worker pool.
func (s *Server) filter(ctx context.Context, req *FilterRequest) (*FilterReply, error) {
	pk := &s.keys.Paillier.PublicKey
	ephPK, err := paillier.NewPublicKeyFromN(req.EphemeralN)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Filter ephemeral key")
	}
	for i := range req.Rows {
		r := &req.Rows[i]
		if len(r.Scores) == 0 || len(r.Blinds) != len(r.Scores) || len(r.EHL) != 0 {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Filter row %d malformed", i)
		}
		if err := validateRow(r, i); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Filter")
		}
	}
	scores := make([]*big.Int, len(req.Rows))
	err = parallel.ForEachCtx(ctx, s.par, len(req.Rows), func(i int) error {
		r := req.Rows[i]
		m, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: r.Scores[0]})
		if err != nil {
			return secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Filter row %d score", i)
		}
		scores[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []WireRow
	for i, r := range req.Rows {
		if scores[i].Sign() == 0 {
			continue // did not satisfy the join condition
		}
		rows = append(rows, r)
	}
	s.ledger.Record("S2", MethodFilter, "joined %d of %d candidate tuples", len(rows), len(req.Rows))

	err = parallel.ForEachCtx(ctx, s.par, len(rows), func(i int) error {
		row := &rows[i]
		// Multiplicative re-blind of the join score: s'' = s' * gamma,
		// with the recorded inverse updated to r^{-1} * gamma^{-1}. The
		// ephemeral modulus is at least twice the main modulus size, so
		// the integer product never wraps and S1 can reduce mod N.
		gamma, err := zmath.RandUnit(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		gammaInv, err := zmath.ModInverse(gamma, pk.N)
		if err != nil {
			return err
		}
		v := new(big.Int).Exp(row.Scores[0], gamma, pk.N2)
		// Re-randomize so the transformation is not a deterministic
		// function of the input ciphertext.
		z, err := s.pkEnc.EncryptZero()
		if err != nil {
			return err
		}
		row.Scores[0] = mulModN2(pk, v, z.C)
		b := new(big.Int).Exp(row.Blinds[0], gammaInv, ephPK.N2)
		row.Blinds[0] = b

		// Additive re-blind of the payload columns.
		for j := 1; j < len(row.Scores); j++ {
			delta, err := zmath.RandInt(rand.Reader, pk.N)
			if err != nil {
				return err
			}
			dct, err := s.pkEnc.Encrypt(delta)
			if err != nil {
				return err
			}
			row.Scores[j] = mulModN2(pk, row.Scores[j], dct.C)
			bct, err := ephPK.Encrypt(delta)
			if err != nil {
				return err
			}
			row.Blinds[j] = mulModN2(ephPK, row.Blinds[j], bct.C)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	perm, err := prf.RandomPerm(len(rows))
	if err != nil {
		return nil, err
	}
	out := make([]WireRow, len(rows))
	for i := range rows {
		out[perm[i]] = rows[i]
	}
	return &FilterReply{Rows: out}, nil
}

// validateRow rejects rows carrying nil slots anywhere a hostile peer
// could hide one; the re-blinding paths do raw big.Int arithmetic on
// these values and must never see a nil.
func validateRow(r *WireRow, i int) error {
	for j, v := range r.EHL {
		if v == nil {
			return fmt.Errorf("cloud: row %d EHL slot %d is nil", i, j)
		}
	}
	for j, v := range r.Scores {
		if v == nil {
			return fmt.Errorf("cloud: row %d score column %d is nil", i, j)
		}
	}
	for j, v := range r.Blinds {
		if v == nil {
			return fmt.Errorf("cloud: row %d blind %d is nil", i, j)
		}
	}
	return nil
}
