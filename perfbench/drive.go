package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/nra"
	"repro/sectopk"
)

// queryRecord is one issued query and what came back.
type queryRecord struct {
	querier    int
	q          query
	start, end time.Time
	ans        *sectopk.Answer
	err        error
	// s1s2 is the S1-S2 traffic during the query; exact only with a
	// single querier.
	s1s2 sectopk.Traffic
}

// writeRecord is one writer operation: an UpdateScores delta shipped
// with Client.Apply, or a Client.Compact.
type writeRecord struct {
	compact bool
	// due is when the operation was scheduled; latency runs from it to
	// done, so a stalled writer charges the wait to every later write.
	due, done time.Time
	late      time.Duration // how late the generator started it
	build     time.Duration // UpdateScores (delta build); 0 for compact
	call      time.Duration // Client.Apply or Client.Compact
	err       error
}

func (w writeRecord) latency() time.Duration { return w.done.Sub(w.due) }

// session drives one workload against one rig: the queriers' client
// connections and query streams, and the writer's mutable handle with
// a plaintext mirror per epoch for the oracle.
type session struct {
	w       workload
	r       *rig
	seed    int64
	clients []*sectopk.Client
	gens    []*queryGen
	writerC *sectopk.Client
	mr      *sectopk.MutableRelation
	rows    *rowGen
	plain   [][]int64
	mirror  map[uint64][][]int64
	writes  int
	// checked collects every answered query (warm-ups too) for the
	// oracle check after the run.
	checked []queryRecord
	tr      *tracer // nil on untraced runs
}

func newSession(ctx context.Context, w workload, r *rig, in *inputs, seed int64) (*session, error) {
	rel := in.rel
	s := &session{w: w, r: r, seed: seed, rows: newRowGen(seed, in.ranks), plain: rel.Rows,
		mirror: map[uint64][][]int64{r.er.Epoch(): rel.Rows}}
	for i := 0; i < w.queriers; i++ {
		c, err := r.dial(ctx)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	s.writerC = s.clients[0]
	if w.writeRate > 0 {
		c, err := r.dial(ctx)
		if err != nil {
			s.close()
			return nil, err
		}
		s.writerC = c
	}
	mr, err := r.owner.NewMutable(rel, r.er)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("mutable handle: %w", err)
	}
	s.mr = mr
	return s, nil
}

func (s *session) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.writerC != nil && (len(s.clients) == 0 || s.writerC != s.clients[0]) {
		s.writerC.Close()
	}
}

// query issues querier i's next query.
func (s *session) query(ctx context.Context, i int) queryRecord {
	return s.execute(ctx, i, s.gens[i].next())
}

// execute issues qq on querier i's connection and times Client.Execute.
func (s *session) execute(ctx context.Context, i int, qq query) queryRecord {
	rec := queryRecord{querier: i, q: qq}
	tk, err := s.r.owner.Token(s.r.er, qq.Query)
	if err != nil {
		rec.err = fmt.Errorf("token: %w", err)
		return rec
	}
	req := sectopk.TopKRequest(relationID, tk, sectopk.WithMode(qq.mode), sectopk.WithHalting(sectopk.HaltingStrict))
	before := s.r.dc.Traffic()
	rec.start = time.Now()
	rec.ans, rec.err = s.clients[i].Execute(ctx, req)
	rec.end = time.Now()
	after := s.r.dc.Traffic()
	rec.s1s2 = sectopk.Traffic{Rounds: after.Rounds - before.Rounds, Bytes: after.Bytes - before.Bytes}
	return rec
}

// warmUp runs one untimed query per querier: the nonce pools and S2's
// worker pools start lazily on first use.
func (s *session) warmUp(ctx context.Context) error {
	recs := make([]queryRecord, len(s.clients))
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = s.execute(ctx, i, newQueryGen(s.seed, -1-i, s.w.modes).next())
		}(i)
	}
	wg.Wait()
	for _, rec := range recs {
		if rec.err != nil {
			return fmt.Errorf("warm-up query: %w", rec.err)
		}
	}
	s.checked = append(s.checked, recs...)
	return nil
}

// write runs one scheduled writer operation due at due.
func (s *session) write(ctx context.Context, due time.Time) writeRecord {
	s.writes++
	rec := writeRecord{due: due, compact: s.writes%compactEvery == 0}
	if late := time.Since(due); late > 0 {
		rec.late = late
	}
	if rec.compact {
		t := time.Now()
		epoch, err := s.writerC.Compact(ctx, relationID)
		rec.call = time.Since(t)
		rec.done = time.Now()
		if err == nil {
			err = s.mr.Adopt(epoch)
		}
		if err != nil {
			rec.err = fmt.Errorf("compact: %w", err)
			return rec
		}
		s.mirror[epoch] = s.plain
		s.tr.call("client.compact", t, rec.done)
		return rec
	}
	id, row := s.rows.next()
	t := time.Now()
	delta, err := s.mr.UpdateScores(map[int][]int64{id: row})
	rec.build = time.Since(t)
	if err != nil {
		rec.err = fmt.Errorf("update scores: %w", err)
		return rec
	}
	t2 := time.Now()
	epoch, err := s.writerC.Apply(ctx, relationID, delta)
	rec.call = time.Since(t2)
	rec.done = time.Now()
	if err == nil {
		err = s.mr.Adopt(epoch)
	}
	if err != nil {
		rec.err = fmt.Errorf("apply: %w", err)
		return rec
	}
	next := append([][]int64(nil), s.plain...)
	next[id] = row
	s.plain = next
	s.mirror[epoch] = next
	s.tr.call("mutable.update_scores", t, t2)
	s.tr.call("client.apply", t2, rec.done)
	return rec
}

// writeProbe runs n closed-loop writes back to back, so workloads
// without a writer still report the write path.
func (s *session) writeProbe(ctx context.Context, n int) []writeRecord {
	// Start from a collected heap, not in the middle of the GC cycles
	// the window's queries left behind.
	runtime.GC()
	var out []writeRecord
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(probeGap)
		}
		rec := s.write(ctx, time.Now())
		out = append(out, rec)
		if rec.err != nil {
			break
		}
	}
	return out
}

// window is one timed measurement window's raw observations.
type window struct {
	queries    []queryRecord
	writes     []writeRecord
	start, end time.Time
	before     counters
	after      counters
	heapMB     []float64 // live heap sampled every 10ms
}

// measure runs the queriers (closed loop) and the writer (open loop)
// for d, then waits for the last in-flight query. Every window restarts
// the query streams, so a seed issues the same queries in every window.
// Querier 0 keeps going past d until it has issued the workload's
// countN queries. The window ends when the last query answers.
func (s *session) measure(ctx context.Context, d time.Duration) *window {
	win := &window{}
	s.gens = s.gens[:0]
	for i := range s.clients {
		s.gens = append(s.gens, newQueryGen(s.seed, i, s.w.modes))
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	stopHeap := sampleHeap()
	win.before = readCounters(s.r.dc)
	win.start = time.Now()
	deadline := win.start.Add(d)
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for issued := 0; time.Now().Before(deadline) || (i == 0 && issued < s.w.countN); issued++ {
				rec := s.query(ctx, i)
				mu.Lock()
				win.queries = append(win.queries, rec)
				mu.Unlock()
			}
		}(i)
	}
	if s.w.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.writes = s.openLoopWrites(ctx, win.start, deadline)
		}()
	}
	wg.Wait()
	win.end = time.Now()
	win.after = readCounters(s.r.dc)
	win.heapMB = stopHeap()
	for _, rec := range win.queries {
		if rec.err == nil {
			s.checked = append(s.checked, rec)
		}
	}
	return win
}

// openLoopWrites issues writes on a fixed schedule from start until
// deadline. A failed write stops the writer: later deltas would build
// on an epoch the data cloud never reached.
func (s *session) openLoopWrites(ctx context.Context, start, deadline time.Time) []writeRecord {
	period := time.Duration(float64(time.Second) / s.w.writeRate)
	var out []writeRecord
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return out
			}
		}
		rec := s.write(ctx, due)
		out = append(out, rec)
		if rec.err != nil {
			return out
		}
	}
}

// checkAnswers reveals every answered query with the owner's keys and
// compares it with the plaintext top-k of the epoch it answered over.
// Scores must match rank by rank; object ids must match wherever the
// score is not tied inside the top k+1, and every revealed object's
// plaintext score must equal its revealed score.
func (s *session) checkAnswers() error {
	for n, rec := range s.checked {
		if rec.ans == nil || rec.ans.TopK == nil {
			return fmt.Errorf("query %d: answer carries no top-k result", n)
		}
		plain, ok := s.mirror[rec.ans.Traffic.Epoch]
		if !ok {
			return fmt.Errorf("query %d: answered over epoch %d, which no write produced", n, rec.ans.Traffic.Epoch)
		}
		got, err := s.r.owner.Reveal(s.r.er, rec.ans.TopK)
		if err != nil {
			return fmt.Errorf("query %d: reveal: %w", n, err)
		}
		if err := checkTopK(&dataset.Relation{Rows: plain}, rec.q.Query, got); err != nil {
			return fmt.Errorf("query %d (%v, attrs %v, weights %v, epoch %d): %w",
				n, rec.q.mode, rec.q.Attrs, rec.q.Weights, rec.ans.Traffic.Epoch, err)
		}
	}
	return nil
}

// errWrongAnswer marks a revealed answer that disagrees with the
// plaintext oracle.
var errWrongAnswer = errors.New("wrong revealed answer")

func checkTopK(rel *dataset.Relation, q sectopk.Query, got []sectopk.Result) error {
	want, err := nra.TopKExact(rel, q.Attrs, q.Weights, q.K+1)
	if err != nil {
		return err
	}
	if len(got) != q.K {
		return fmt.Errorf("%w: %d results, want %d", errWrongAnswer, len(got), q.K)
	}
	for i, g := range got {
		if g.Score != want[i].Worst {
			return fmt.Errorf("%w: rank %d score %d, oracle %d", errWrongAnswer, i+1, g.Score, want[i].Worst)
		}
		if g.Object < 0 || g.Object >= rel.N() {
			return fmt.Errorf("%w: rank %d object %d out of range", errWrongAnswer, i+1, g.Object)
		}
		if score := rel.Score(g.Object, q.Attrs, q.Weights); score != g.Score {
			return fmt.Errorf("%w: rank %d object %d revealed score %d, plaintext %d", errWrongAnswer, i+1, g.Object, g.Score, score)
		}
		tied := (i > 0 && want[i-1].Worst == g.Score) || (i+1 < len(want) && want[i+1].Worst == g.Score)
		if !tied && g.Object != want[i].Obj {
			return fmt.Errorf("%w: rank %d object %d, oracle %d", errWrongAnswer, i+1, g.Object, want[i].Obj)
		}
	}
	return nil
}
