package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"repro/sectopk"
)

// perLayer derives the per-layer metrics from the traced window (and
// the untraced window before it, for the tracing overhead).
func (b *bench) perLayer(m map[string]metric, tr *tracer, plain, win *window, probe []writeRecord, encrypt []float64, kern map[string]float64) {
	qs := okQueries(win)
	n := float64(len(qs))
	serves := tr.matchServes(win.queries)

	// sectopk: S1's serve span and what the client plane adds to it.
	var serveMs, wireMs []float64
	var s1Self, fanout, fallbacks float64
	var s2Rounds []interval
	for _, f := range tr.frames {
		if f.s2Plane() && f.ev.Side == "caller" {
			s2Rounds = append(s2Rounds, f.interval())
		}
	}
	for i, q := range win.queries {
		if q.err != nil {
			continue
		}
		fanout += float64(q.ans.Traffic.FanOut)
		fallbacks += float64(q.ans.Traffic.MergeFallbacks)
		sv := serves[i]
		if sv == nil {
			continue
		}
		serveMs = append(serveMs, ms(sv.sp.Elapsed))
		wireMs = append(wireMs, ms(q.end.Sub(q.start)-sv.sp.Elapsed))
		siv := interval{start: sv.end.Add(-sv.sp.Elapsed), end: sv.end}
		s1Self += ms(sv.sp.Elapsed - covered(siv, s2Rounds))
	}
	matched := float64(len(serveMs))
	m["sectopk.serve_ms_p50"] = metric{median(serveMs), "ms"}
	m["sectopk.client_wire_ms_p50"] = metric{median(wireMs), "ms"}
	m["core.s1_self_ms_per_query"] = metric{ratio(s1Self, matched), "ms"}
	b.note("%d of %d traced queries matched to their S1 span", len(serveMs), len(qs))

	// qos: typed sheds, across both windows.
	var shed float64
	for _, w := range []*window{plain, win} {
		for _, q := range w.queries {
			if errors.Is(q.err, sectopk.ErrOverloaded) {
				shed++
			}
		}
	}
	m["qos.shed_total"] = metric{shed, "count"}

	// core and cloud: exact halting depth per mode and S2 calls, over
	// the counted queries.
	depth := map[sectopk.Mode][]float64{}
	var s2Calls float64
	counted := b.counted(win)
	for _, q := range counted {
		depth[q.q.mode] = append(depth[q.q.mode], float64(q.ans.TopK.Depth))
		s2Calls += float64(q.ans.Traffic.S2Calls)
	}
	if b.w.countN == 0 {
		// With several queriers, each answer's S2Calls is a delta on a
		// shared counter that also counts the other queries' calls; the
		// window's batch items are exact.
		s2Calls = float64(win.after.batchItems - win.before.batchItems)
	}
	m["cloud.s2_calls_per_query"] = metric{ratio(s2Calls, float64(len(counted))), "count"}
	for mode, name := range map[sectopk.Mode]string{
		sectopk.ModeFull: "core.depth_mean.qry_f", sectopk.ModeEliminate: "core.depth_mean.qry_e", sectopk.ModeBatched: "core.depth_mean.qry_ba",
	} {
		m[name] = metric{mean(depth[mode]), "count"}
	}

	// cloud: the batch scheduler and S2's handler time.
	items := float64(win.after.batchItems - win.before.batchItems)
	flushes := float64(win.after.flushTotal() - win.before.flushTotal())
	m["cloud.items_per_envelope"] = metric{ratio(items, flushes), "count"}
	for _, reason := range []string{"idle", "size", "tick"} {
		m["cloud.flush_share."+reason] = metric{ratio(float64(win.after.flushes[reason]-win.before.flushes[reason]), flushes), "ratio"}
	}

	// transport: S1-S2 frames, caller side matched to server side by id.
	server := map[uint64]frameEvent{}
	var s2Busy, wire, roundBytes, frameErrors float64
	var rounds []float64
	for _, f := range tr.frames {
		if f.ev.Code != "" {
			frameErrors++
		}
		if f.s2Plane() && f.ev.Side == "server" {
			server[f.ev.Frame] = f
			s2Busy += ms(f.ev.Elapsed)
		}
	}
	for _, f := range tr.frames {
		if !f.s2Plane() || f.ev.Side != "caller" {
			continue
		}
		rounds = append(rounds, ms(f.ev.Elapsed))
		roundBytes += float64(f.ev.Bytes)
		if sf, ok := server[f.ev.Frame]; ok {
			wire += ms(f.ev.Elapsed - sf.ev.Elapsed)
		}
	}
	m["cloud.s2_busy_ms_per_query"] = metric{ratio(s2Busy, n), "ms"}
	m["transport.round_ms_p50"] = metric{median(rounds), "ms"}
	m["transport.wire_ms_per_query"] = metric{ratio(wire, n), "ms"}
	m["transport.bytes_per_round"] = metric{ratio(roundBytes, float64(len(rounds))), "B"}
	m["transport.frame_errors"] = metric{frameErrors, "count"}

	// shard: fan-out and merge-bound fallbacks.
	m["shard.fanout"] = metric{ratio(fanout, n), "count"}
	m["shard.merge_fallbacks_per_query"] = metric{ratio(fallbacks, n), "count"}

	// mutate: the writer's calls (the open-loop writer in the traced
	// window, or the closed-loop probe after it).
	writes := append(append([]writeRecord(nil), win.writes...), probe...)
	var lat, build, apply, compact []float64
	var late float64
	for _, w := range writes {
		if w.err != nil {
			continue
		}
		lat = append(lat, ms(w.latency()))
		if w.compact {
			compact = append(compact, ms(w.call))
		} else {
			build = append(build, ms(w.build))
			apply = append(apply, ms(w.call))
		}
		late = max(late, ms(w.late))
	}
	m["mutate.write_p50_ms"] = metric{median(lat), "ms"}
	m["mutate.write_tail_ms"] = metric{percentile(lat, b.w.writeTail), "ms"}
	m["mutate.delta_build_ms_p50"] = metric{median(build), "ms"}
	m["mutate.apply_ms_p50"] = metric{median(apply), "ms"}
	m["mutate.compact_ms_p50"] = metric{median(compact), "ms"}
	m["gen.write_late_ms_max"] = metric{late, "ms"}

	// Owner encryption and the crypto kernels.
	m["owner.encrypt_ms_per_row"] = metric{median(encrypt) / relRows, "ms"}
	for name, v := range kern {
		m[name] = metric{v, "us"}
	}

	// Process: CPU, allocation and GC over the traced window.
	cpu := win.after.cpu - win.before.cpu
	m["proc.cpu_ms_per_query"] = metric{ratio(ms(cpu), n), "ms"}
	m["go.alloc_mb_per_query"] = metric{ratio(float64(win.after.allocBytes-win.before.allocBytes)/(1<<20), n), "MB"}
	m["go.gc_cpu_fraction"] = metric{ratio(win.after.gcCPU-win.before.gcCPU, win.after.totalCPU-win.before.totalCPU), "ratio"}

	// Harness: traced throughput against the untraced window before it.
	qpsOf := func(w *window) float64 { return float64(len(okQueries(w))) / w.end.Sub(w.start).Seconds() }
	m["trace.overhead_ratio"] = metric{ratio(qpsOf(win), qpsOf(plain)), "ratio"}
}

// sourceDigest identifies the code under test: the VCS revision when
// the build carries one, else a digest of the Go sources and module
// files under the working directory (benchmark checkouts are not git
// repositories).
func sourceDigest() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
