// Command perfbench is the repository benchmark: it stands up the
// paper's four parties in one process — the owner, S2 (crypto cloud),
// S1 (data cloud) and queriers — with both links (querier→S1 and S1→S2)
// over loopback TCP, drives one named workload for a fixed time, reveals
// every answer and checks it against a plaintext oracle, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Run it from the repository root through its wrapper, which builds it
// from source first:
//
//	bash perfbench/run.sh --workload topk-serial --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the window
// into an untraced half and a traced half on the same parties and
// reports the per-layer metrics, writing the traced window's spans under
// .bench_build/spans. METRICS.md maps each per-layer metric to the
// end-to-end metric and workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/sectopk"
)

// setupReps is how many times a run stands the parties up; setup_s is
// the median, and the last rig serves the run.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	info := runInfo(w, *seed, *trace)
	fmt.Println(infoLine(info))

	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed)), info: info}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errWrongAnswer) {
			out, _ := json.Marshal(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}})
			fmt.Println(string(out))
		}
		return 1
	}
	printTable(res.Metrics, b.notes)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runInfo records what shaped the run.
func runInfo(w workload, seed int64, trace int) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"key_bits":   keyBits,
		"rows":       relRows,
		"attrs":      relAttrs,
		"queriers":   w.queriers,
		"shards":     w.shards,
		"go":         runtime.Version(),
		"commit":     sourceDigest(),
	}
}

func infoLine(info map[string]any) string {
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := "# perfbench"
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%v", k, info[k])
	}
	return line
}

// printTable prints every metric by name and unit, then the notes.
func printTable(ms map[string]metric, notes []string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
}

// bench is one invocation.
type bench struct {
	w         workload
	seed      int64
	window    time.Duration
	traced    bool
	spansPath string
	info      map[string]any
	notes     []string
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) run() (result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := genInputs(b.seed)
	first := newQueryGen(b.seed, 0, b.w.modes).next().Query // issued in setup
	tr := &tracer{}
	var sink sectopk.TraceSink
	if b.traced {
		sink = tr.spanSink()
	}
	var (
		r       *rig
		err     error
		setups  []float64
		encrypt []float64
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
		if r, err = newRig(in.rel, b.w.shards, first, sink); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, r.setup.Seconds())
		encrypt = append(encrypt, ms(r.encrypt))
	}
	s, err := newSession(ctx, b.w, r, in, b.seed)
	if err != nil {
		r.close()
		return result{}, err
	}
	res, err := b.drive(ctx, s, tr, setups, encrypt)
	s.close()
	if cerr := r.close(); err == nil && cerr != nil {
		err = fmt.Errorf("serving loop: %w", cerr)
	}
	return res, err
}

// drive runs the warm-up, the timed window(s) and the write probe, checks
// every answer, and derives the metrics.
func (b *bench) drive(ctx context.Context, s *session, tr *tracer, setups, encrypt []float64) (result, error) {
	if err := s.warmUp(ctx); err != nil {
		return result{}, err
	}
	var traced *window
	var probe []writeRecord
	var kern map[string]float64
	if b.traced {
		// Two halves, so a traced run takes as long as an untraced one;
		// the first half is the base of trace.overhead_ratio.
		b.window /= 2
	}
	plain := s.measure(ctx, b.window)
	if b.traced {
		s.tr = tr
		stop := tr.start()
		traced = s.measure(ctx, b.window)
		if b.w.writeRate == 0 {
			probe = s.writeProbe(ctx, probeWrites)
		}
		stop()
		var err error
		if kern, err = kernels(b.seed); err != nil {
			return result{}, err
		}
	} else {
		// The kernels are a per-layer metric; on untraced runs they are a
		// note that shows how fast the host ran, for reading the run.
		k, err := kernels(b.seed)
		if err != nil {
			return result{}, err
		}
		b.note("host kernels: paillier.encrypt_us=%.1f dj.encrypt_us=%.1f zmath.modexp_us=%.1f",
			k["paillier.encrypt_us"], k["dj.encrypt_us"], k["zmath.modexp_us"])
	}

	windows := []*window{plain}
	if traced != nil {
		windows = append(windows, traced)
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var firstErr error
	for _, win := range windows {
		res.Attempted += len(win.queries) + len(win.writes)
		res.Failed += countFailed(win)
		firstErr = errors.Join(firstErr, firstError(win))
	}
	res.Attempted += len(probe)
	for _, wr := range probe {
		if wr.err != nil {
			res.Failed++
			firstErr = errors.Join(firstErr, wr.err)
		}
	}
	b.note("fail_ratio %.4f ratio (%d failed of %d attempted)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if firstErr != nil {
		b.note("failures: %v", firstErr)
	}
	if err := s.checkAnswers(); err != nil {
		res.Correct = false
		return res, err
	}
	for _, win := range windows {
		if err := b.checkS2Calls(win); err != nil {
			res.Correct = false
			return res, err
		}
	}
	if b.traced {
		b.perLayer(res.Metrics, tr, plain, traced, probe, encrypt, kern)
		if err := writeSpans(b.spansPath, b.info, tr.spans(traced, tr.matchServes(traced.queries))); err != nil {
			return res, err
		}
		b.note("spans written to %s", b.spansPath)
		return res, nil
	}
	b.endToEnd(res.Metrics, s, plain, setups)
	return res, nil
}

func countFailed(win *window) int {
	n := 0
	for _, q := range win.queries {
		if q.err != nil {
			n++
		}
	}
	for _, w := range win.writes {
		if w.err != nil {
			n++
		}
	}
	return n
}

// firstError returns the window's first failed query or write.
func firstError(win *window) error {
	for _, q := range win.queries {
		if q.err != nil {
			return q.err
		}
	}
	for _, w := range win.writes {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// checkS2Calls asserts, with a single querier, that the S2 calls the
// answers report add up exactly to the batch scheduler's item count
// over the window.
func (b *bench) checkS2Calls(win *window) error {
	if b.w.queriers != 1 {
		return nil
	}
	var sum int64
	for _, q := range win.queries {
		if q.err == nil {
			sum += q.ans.Traffic.S2Calls
		}
	}
	if items := win.after.batchItems - win.before.batchItems; items != sum {
		return fmt.Errorf("S2-call accounting: answers report %d S2 calls, the batch scheduler shipped %d items", sum, items)
	}
	return nil
}

// counted returns the queries the exact counts average over: querier
// 0's first countN answers, or every answer when countN is 0.
func (b *bench) counted(win *window) []queryRecord {
	qs := okQueries(win)
	if b.w.countN == 0 {
		return qs
	}
	var out []queryRecord
	for _, q := range qs {
		if q.querier == 0 && len(out) < b.w.countN {
			out = append(out, q)
		}
	}
	return out
}

// s1s2PerQuery returns the S1-S2 rounds and bytes per counted query:
// exact per-query deltas with one querier, window totals otherwise.
func (b *bench) s1s2PerQuery(win *window) (rounds, bytes float64) {
	qs := b.counted(win)
	if b.w.countN == 0 {
		n := float64(len(qs))
		return ratio(float64(win.after.traffic.Rounds-win.before.traffic.Rounds), n),
			ratio(float64(win.after.traffic.Bytes-win.before.traffic.Bytes), n)
	}
	for _, q := range qs {
		rounds += float64(q.s1s2.Rounds)
		bytes += float64(q.s1s2.Bytes)
	}
	n := float64(len(qs))
	return ratio(rounds, n), ratio(bytes, n)
}

// okQueries returns the window's answered queries.
func okQueries(win *window) []queryRecord {
	var out []queryRecord
	for _, q := range win.queries {
		if q.err == nil {
			out = append(out, q)
		}
	}
	return out
}

// endToEnd derives the untraced run's metrics.
func (b *bench) endToEnd(m map[string]metric, s *session, win *window, setups []float64) {
	qs := okQueries(win)
	lat := make([]float64, len(qs))
	for i, q := range qs {
		lat[i] = ms(q.end.Sub(q.start))
	}
	rounds, bytes := b.s1s2PerQuery(win)
	m["setup_s"] = metric{median(setups), "s"}
	m["query_p50_ms"] = metric{median(lat), "ms"}
	m["query_tail_ms"] = metric{percentile(lat, b.w.queryTail), "ms"}
	m["qps"] = metric{float64(len(qs)) / win.end.Sub(win.start).Seconds(), "1/s"}
	m["s1s2_bytes_per_query"] = metric{bytes, "B"}
	m["s1s2_rounds_per_query"] = metric{rounds, "count"}
	// The 95th percentile of the samples, not their maximum: the live
	// heap at any one GC depends on which query was in flight.
	m["mem_peak_mb"] = metric{percentile(win.heapMB, 95), "MB"}
	m["storage_bytes_per_value"] = metric{float64(s.r.er.ByteSize()) / float64(relRows*relAttrs), "B"}
	b.note("query_tail_ms is p%g of %d queries", b.w.queryTail, len(qs))
}
