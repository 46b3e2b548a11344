package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"retrasyn"
	"retrasyn/internal/datagen"
	"retrasyn/internal/trajectory"
	"retrasyn/internal/transition"
)

// kind selects which system a workload drives.
type kind int

const (
	kindHTTP     kind = iota // curator behind a loopback listener, gateways over the binary wire
	kindInproc               // Framework.ProcessTimestamp, frozen layout
	kindRelayout             // Framework.ProcessTimestamp with online re-discretization
)

// shape is a workload's input and system configuration.
type shape struct {
	dataset string  // standard dataset name (retrasyn.StandardDataset)
	scale   float64 // population scale
	k       int     // grid granularity of the boot layout
	eps     float64
	w       int
	lambda  float64
	// Online re-discretization (kindRelayout only).
	rediscretizeEvery int
	relayoutThreshold float64
	trigger           retrasyn.TriggerPolicy
}

// workload is one named set of inputs and the system it runs against.
type workload struct {
	name  string
	why   string
	kind  kind
	shape shape
}

// sanJoaquinX4 is the ROADMAP's headline replay: about 109k users, 4.24M
// presence events, 150 timestamps, k=6 (transition domain d=328), ε=1, w=20,
// population division. λ=13.6 matches the documented curator/loadgen replay.
var sanJoaquinX4 = shape{dataset: "sanjoaquin", scale: 4, k: 6, eps: 1, w: 20, lambda: 13.6}

// workloads is the benchmark's fixed workload set; BENCHMARK.json lists the
// same names and reasons.
var workloads = []workload{
	{
		name:  "sj-http",
		why:   "SanJoaquin x4 over the binary wire to an in-process curator on loopback: the headline replay, every serving layer works",
		kind:  kindHTTP,
		shape: sanJoaquinX4,
	},
	{
		name:  "sj-inproc",
		why:   "the same stream through Framework.ProcessTimestamp: bypasses transport and curator, so the paper's stages dominate",
		kind:  kindInproc,
		shape: sanJoaquinX4,
	},
	{
		// The CI degradation smoke's settings (drifting dataset, k=6, ε=1,
		// w=4, λ=14, rebuild every window, threshold 0.05, degradation-or)
		// at scale 1, in-process because remote clients cannot follow a
		// layout migration yet.
		name: "drift-relayout",
		why:  "drifting hotspot in-process with online re-discretization and the monitor: the only workload where proposals and migrations run",
		kind: kindRelayout,
		shape: shape{dataset: "drifting", scale: 1, k: 6, eps: 1, w: 4, lambda: 14,
			rediscretizeEvery: 1, relayoutThreshold: 0.05, trigger: retrasyn.TriggerDegradationOr},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// systemSeed derives replay i's system seed (curator or framework
// randomness) from the workload seed, and deviceSeed the simulated devices'
// perturbation seed. Each replay of a run gets its own pair, so the utility
// metrics average over independent releases, and every run of a seed
// replays the same sequence.
func systemSeed(seed uint64, replay int) uint64 {
	return (seed*0x9e3779b97f4a7c15 + 0x5eed) ^ uint64(replay)*0xbf58476d1ce4e5b9
}

func deviceSeed(seed uint64, replay int) uint64 {
	return seed ^ 0xd1b54a32d192ed03 ^ uint64(replay)*0x94d049bb133111eb
}

// gatewayCount is the number of gateway goroutines: one per CPU the
// process may use, never more than nproc.
func gatewayCount() int {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	return n
}

// round is one timestamp of the input stream in compact form: the present
// users in stream order with the transition-domain index of their state.
type round struct {
	users  []int32
	idx    []int32
	active int // users with a location at t: the public size-adjustment target
}

// shard is one gateway's part of a round.
type shard struct {
	users []int
	idx   []int32
}

// input is a workload's generated input. Everything here is the load
// generator's work and is never timed as the system.
type input struct {
	bounds     retrasyn.Bounds
	T          int
	users      int
	events     int64 // presence events in one replay
	points     int   // input location points: the release must match under population division
	domain     int   // transition-domain size on the boot layout
	genSeconds float64
	source     string // "generated" or "cache"

	orig     *trajectory.Dataset // discretized on the boot grid (utility reference)
	rounds   []round             // sj kinds
	gateways int                 // sj-http
	shards   [][]shard           // sj-http: shards[t][g]

	raw  *trajectory.RawDataset // drift: re-discretized after each migration
	boot *trajectory.Stream     // drift: the stream on the boot layout
}

// prepare generates (or loads from the cache) the workload's input for the
// seed.
func (w workload) prepare(cfg config) (*input, error) {
	start := time.Now()
	in := &input{source: "generated"}
	var err error
	if w.kind == kindRelayout {
		err = in.loadDrift(cfg)
	} else {
		err = in.loadStream(cfg, w.kind == kindHTTP)
	}
	if err != nil {
		return nil, err
	}
	in.genSeconds = time.Since(start).Seconds()
	return in, nil
}

func (in *input) loadDrift(cfg config) error {
	raw, b, err := retrasyn.StandardDataset(cfg.shape.dataset, cfg.shape.scale, cfg.seed)
	if err != nil {
		return err
	}
	g, err := retrasyn.NewGrid(cfg.shape.k, b)
	if err != nil {
		return err
	}
	in.bounds, in.raw, in.T, in.users = b, raw, raw.T, len(raw.Trajs)
	in.points = raw.NumPoints()
	in.domain = transition.NewDomain(g).Size()
	in.boot = trajectory.NewStream(trajectory.Discretize(raw, g, trajectory.DiscretizeOptions{}))
	for _, ev := range in.boot.Events {
		in.events += int64(len(ev))
	}
	return nil
}

// loadStream builds the discretized stream, from the input cache when this
// seed was generated before: SanJoaquin x4 takes about 20 s to generate.
func (in *input) loadStream(cfg config, sharded bool) error {
	s := cfg.shape
	spec, ok := datagen.SpecByName(s.dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", s.dataset)
	}
	b := spec.Bounds
	g, err := retrasyn.NewGrid(s.k, b)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.stateDir, "inputs", fmt.Sprintf("%s-x%g-k%d-seed%d.cells", s.dataset, s.scale, s.k, cfg.seed))
	d, err := readCells(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("input cache %s: %w", path, err)
		}
		raw, _, err := retrasyn.StandardDataset(s.dataset, s.scale, cfg.seed)
		if err != nil {
			return err
		}
		d = retrasyn.Discretize(raw, g)
		if err := writeCells(path, d); err != nil {
			return fmt.Errorf("input cache %s: %w", path, err)
		}
	} else {
		in.source = "cache"
	}
	dom := transition.NewDomain(g)
	in.bounds, in.orig, in.T, in.users = b, d, d.T, len(d.Trajs)
	in.points, in.domain = d.NumPoints(), dom.Size()
	in.rounds = make([]round, d.T)
	err = trajectory.SweepEvents(d, func(t int, events []trajectory.Event, active int) error {
		r := round{users: make([]int32, len(events)), idx: make([]int32, len(events)), active: active}
		for i, ev := range events {
			idx, ok := dom.Index(ev.State)
			if !ok {
				return fmt.Errorf("t=%d: user %d's state %v is outside the transition domain", t, ev.User, ev.State)
			}
			r.users[i], r.idx[i] = int32(ev.User), int32(idx)
		}
		in.rounds[t] = r
		in.events += int64(len(events))
		return nil
	})
	if err != nil {
		return err
	}
	if sharded {
		in.shardRounds(gatewayCount())
	}
	return nil
}

// shardRounds splits every round across n gateways by user ID, so a user's
// traffic always flows through the same gateway.
func (in *input) shardRounds(n int) {
	in.gateways = n
	in.shards = make([][]shard, len(in.rounds))
	for t, r := range in.rounds {
		sh := make([]shard, n)
		for i, u := range r.users {
			g := int(u) % n
			sh[g].users = append(sh[g].users, int(u))
			sh[g].idx = append(sh[g].idx, r.idx[i])
		}
		in.shards[t] = sh
	}
}

// events expands round t into the facade's event form, reusing buf.
func (r *round) events(dom *transition.Domain, buf []retrasyn.Event) []retrasyn.Event {
	buf = buf[:0]
	for i, u := range r.users {
		buf = append(buf, retrasyn.Event{User: int(u), State: dom.StateAt(int(r.idx[i]))})
	}
	return buf
}

// The input cache holds a discretized dataset as uvarints: magic, T, the
// trajectory count, then per trajectory its start, length and cells.
const cellsMagic = "RSBENCH1"

func writeCells(path string, d *trajectory.Dataset) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".cells-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op once renamed
	bw := bufio.NewWriter(f)
	bw.WriteString(cellsMagic)
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { bw.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	put(uint64(d.T))
	put(uint64(len(d.Trajs)))
	for _, tr := range d.Trajs {
		put(uint64(tr.Start))
		put(uint64(len(tr.Cells)))
		for _, c := range tr.Cells {
			put(uint64(c))
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func readCells(path string) (*trajectory.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(cellsMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != cellsMagic {
		return nil, fmt.Errorf("not a %s file", cellsMagic)
	}
	var rerr error
	get := func() int {
		v, err := binary.ReadUvarint(br)
		if err != nil && rerr == nil {
			rerr = err
		}
		return int(v)
	}
	d := &trajectory.Dataset{T: get()}
	n := get()
	if rerr != nil || n > 1<<26 {
		return nil, fmt.Errorf("corrupt header")
	}
	d.Trajs = make([]trajectory.CellTrajectory, n)
	for i := range d.Trajs {
		tr := &d.Trajs[i]
		tr.Start = get()
		n := get()
		if rerr != nil || n > 1<<24 {
			return nil, fmt.Errorf("corrupt trajectory %d", i)
		}
		tr.Cells = make([]retrasyn.Cell, n)
		for j := range tr.Cells {
			tr.Cells[j] = retrasyn.Cell(get())
		}
		if rerr != nil {
			return nil, fmt.Errorf("corrupt trajectory %d: %w", i, rerr)
		}
	}
	return d, nil
}
