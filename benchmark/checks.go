package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"retrasyn/internal/metrics"
	"retrasyn/internal/trajectory"
)

// digest is FNV-1a over a release: T, then every trajectory's start, length
// and cells.
func digest(d *trajectory.Dataset) string {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	put := func(v int64) { h.Write(buf[:binary.PutVarint(buf[:], v)]) }
	put(int64(d.T))
	put(int64(len(d.Trajs)))
	for _, tr := range d.Trajs {
		put(int64(tr.Start))
		put(int64(len(tr.Cells)))
		for _, c := range tr.Cells {
			put(int64(c))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify runs the checks that look beyond one replay: every replay's
// release matches the same replay in earlier passes and runs of this seed,
// and on sj-http the first release matches the one the same replay gives
// through Curator methods, without HTTP.
func (w workload) verify(in *input, cfg config, o *ops, p, traced *pass) error {
	if w.kind == kindHTTP {
		want, err := directDigest(in, cfg, o)
		if err != nil {
			return fmt.Errorf("direct Curator replay: %w", err)
		}
		if got := p.releases[0].Digest; got != want {
			return fmt.Errorf("release digest %s over HTTP differs from %s driven through Curator methods", got, want)
		}
	}
	if err := checkStored(cfg.storedFile(), p.releases); err != nil {
		return err
	}
	if traced != nil {
		return checkStored(cfg.storedFile(), traced.releases)
	}
	return nil
}

// evalOptions fixes the utility evaluation's random range queries, so the
// metrics move only with the release. NumQueries is well above the paper's
// 100 so that query_error reflects the release, not which boxes were drawn.
// Only density and query error are reported; the hotspot and pattern
// metrics are set to their cheapest, which leaves those two unchanged.
var evalOptions = metrics.Options{Seed: 2024, NumQueries: 3000,
	NumWindows: 1, TopNPatterns: 1, PatternMinLen: 2, PatternMaxLen: 2}

// utility scores a release against the input on the layout the release is
// expressed in (after migrations, the input is re-discretized onto it).
func utility(in *input, out *outcome) metrics.Report {
	orig := in.orig
	if in.raw != nil {
		orig = trajectory.Discretize(in.raw, out.space, trajectory.DiscretizeOptions{})
	}
	return metrics.EvaluateSpace(orig, out.release, out.space, evalOptions)
}

// stored is one replay's release identity, which every run of a workload
// and seed must reproduce.
type stored struct {
	Digest     string `json:"digest"`
	Migrations int    `json:"migrations"`
}

// checkStored compares each replay's release with the one earlier passes
// and runs of the same workload and seed stored in this checkout for that
// replay, and stores the replays none of them reached.
func checkStored(path string, got []stored) error {
	var want []stored
	blob, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(blob, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("replay %d: release digest %s with %d migrations, an earlier run of this workload and seed gave %s with %d",
				i, got[i].Digest, got[i].Migrations, want[i].Digest, want[i].Migrations)
		}
	}
	if len(got) <= len(want) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if blob, err = json.Marshal(got); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// storedFile is where runs of this workload and seed keep their release
// digest.
func (cfg config) storedFile() string {
	s := cfg.shape
	return filepath.Join(cfg.stateDir, "digests", fmt.Sprintf("%s-%s-x%g-seed%d.json", cfg.workload, s.dataset, s.scale, cfg.seed))
}

// traceFile is where the traced pass writes its spans.
func (cfg config) traceFile() string {
	return filepath.Join(cfg.stateDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
