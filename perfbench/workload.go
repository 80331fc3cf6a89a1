package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/foundry"
	"repro/internal/layout"
	"repro/internal/serve"
	"repro/internal/service"
)

// workload pins one traffic mix and the server configuration it runs
// against. Every workload uses the same admission-free server (see
// serverConfig); only Compiled differs.
type workload struct {
	name string
	// compiled arms serve.Config.Compiled.
	compiled bool
	// warmup is the length of the warm-up pass: the first warmup
	// requests of the stream, sent before anything is timed.
	warmup int
	// gen builds the request stream from the seed.
	gen func(seed int64, cells []cell) (*stream, error)
}

// The Zipf streams draw ranks with exponent zipfS over every cell;
// zipfLen is how many draws a stream holds before it repeats.
const (
	zipfS   = 1.1
	zipfLen = 1 << 15
)

// /analyze traffic: analyzeBatches distinct requests of analyzeBatch
// programs each, repeated in order.
const (
	analyzeBatch   = 16
	analyzeBatches = 64
)

var workloads = []workload{
	{name: "matrix-sweep", warmup: 2 * 1218, gen: genSweep},
	{name: "compiled-skew", compiled: true, warmup: 4096, gen: genZipf(true)},
	{name: "hot-mix", warmup: 4096, gen: genZipf(false)},
	{name: "analyze", warmup: 4 * analyzeBatches, gen: genAnalyze},
}

func workloadByName(name string) (workload, error) {
	var known []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		known = append(known, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
}

// cell is one point of the attack matrix: a scenario under a catalogue
// defense in one data model.
type cell struct {
	scenario attack.Scenario
	defense  defense.Config // catalogue config with Model set
}

// allCells is every scenario × defense × data model, in catalogue
// order (29 × 14 × 3 = 1218).
func allCells() []cell {
	var out []cell
	for _, s := range attack.Catalog() {
		for _, d := range defense.Catalog() {
			for _, m := range []layout.Model{layout.ILP32, layout.ILP32i386, layout.LP64} {
				cfg := d
				cfg.Model = m
				out = append(out, cell{scenario: s, defense: cfg})
			}
		}
	}
	return out
}

// op is one request of a stream.
type op struct {
	path  string // "/run" or "/analyze"
	body  []byte
	cell  int // index into stream.cells (/run)
	batch int // index into stream.batches (/analyze)
}

// stream is a workload's generated input. Requests are sent in order
// and the sequence repeats once exhausted.
type stream struct {
	ops     []op
	cells   []cell
	batches [][]serve.AnalyzeProgram
}

// at returns the i-th request, wrapping around the stream.
func (s *stream) at(i int) *op { return &s.ops[i%len(s.ops)] }

// bytes is the stream as it goes on the wire: path and body of every
// request, in order.
func (s *stream) bytes() []byte {
	var b bytes.Buffer
	for _, o := range s.ops {
		b.WriteString(o.path)
		b.WriteByte(' ')
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func runOp(cells []cell, i int, noCache bool) (op, error) {
	c := cells[i]
	body, err := json.Marshal(service.Request{
		Scenario: c.scenario.ID,
		Defense:  c.defense.Name,
		Model:    c.defense.Model.Name,
		NoCache:  noCache,
	})
	return op{path: "/run", body: body, cell: i}, err
}

// genSweep is one seeded permutation of every cell, each request
// bypassing the result cache.
func genSweep(seed int64, cells []cell) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{cells: cells}
	for _, i := range rng.Perm(len(cells)) {
		o, err := runOp(cells, i, true)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, o)
	}
	return s, nil
}

// rankingSeed fixes the order of cells by popularity in the Zipf
// streams.
const rankingSeed = 0x5eed

// zipfRanking orders every cell by popularity. The order is the same
// for every seed, so every run has the same hot head and the same cost
// mix; the seed drives only the draws. Ranks come in blocks that hold
// one cell of each scenario, so the head covers every scenario once
// rather than whichever few a shuffle put first.
func zipfRanking(cells []cell) []int {
	rng := rand.New(rand.NewSource(rankingSeed))
	var ids []string
	byScenario := map[string][]int{}
	for i, c := range cells {
		id := c.scenario.ID
		if _, seen := byScenario[id]; !seen {
			ids = append(ids, id)
		}
		byScenario[id] = append(byScenario[id], i)
	}
	for _, id := range ids {
		group := byScenario[id]
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	}
	rank := make([]int, 0, len(cells))
	for k := 0; len(rank) < len(cells); k++ {
		for _, s := range rng.Perm(len(ids)) {
			if group := byScenario[ids[s]]; k < len(group) {
				rank = append(rank, group[k])
			}
		}
	}
	return rank
}

// genZipf draws cells from a Zipf law over zipfRanking: a hot head and
// a long tail. noCache sets no_cache on every request (the
// compiled-skew stream), so only the program cache can absorb the
// skew.
func genZipf(noCache bool) func(int64, []cell) (*stream, error) {
	return func(seed int64, cells []cell) (*stream, error) {
		rank := zipfRanking(cells)
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(cells)-1))
		s := &stream{cells: cells, ops: make([]op, 0, zipfLen)}
		for len(s.ops) < zipfLen {
			o, err := runOp(cells, rank[z.Uint64()], noCache)
			if err != nil {
				return nil, err
			}
			s.ops = append(s.ops, o)
		}
		return s, nil
	}
}

// genAnalyze builds /analyze batches of explicit foundry programs,
// generated client-side from the seed.
func genAnalyze(seed int64, _ []cell) (*stream, error) {
	s := &stream{}
	for b := 0; b < analyzeBatches; b++ {
		var progs []serve.AnalyzeProgram
		for j := 0; j < analyzeBatch; j++ {
			g, err := foundry.Generate(seed, b*analyzeBatch+j)
			if err != nil {
				return nil, err
			}
			progs = append(progs, serve.AnalyzeProgram{Name: g.Labels.Name, Src: g.Src})
		}
		body, err := json.Marshal(serve.AnalyzeRequest{Programs: progs})
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, progs)
		s.ops = append(s.ops, op{path: "/analyze", body: body, batch: b})
	}
	return s, nil
}
