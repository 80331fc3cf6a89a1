package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"repro/internal/analyzer"
	"repro/internal/foundry"
	"repro/internal/serve"
)

// runRef is the expected /run answer for one cell, from a direct
// Scenario.Run outside the server.
type runRef struct {
	status  string
	details []string
}

// progRef is the expected /analyze item for one program, from direct
// analyzer.Analyze and analyzer.Baseline calls.
type progRef struct {
	ok       bool
	codes    []string // static diagnostic codes, in report order
	baseline int      // baseline findings
}

// oracle holds the reference answer for every request a stream sends.
type oracle struct {
	runs    map[int]runRef
	batches [][]progRef
}

func buildOracle(s *stream) (*oracle, error) {
	or := &oracle{runs: make(map[int]runRef)}
	for _, o := range s.ops {
		if o.path != "/run" {
			continue
		}
		if _, done := or.runs[o.cell]; done {
			continue
		}
		c := s.cells[o.cell]
		out, err := c.scenario.Run(c.defense)
		if err != nil {
			return nil, fmt.Errorf("reference %s under %s/%s: %w", c.scenario.ID, c.defense.Name, c.defense.Model.Name, err)
		}
		or.runs[o.cell] = runRef{status: out.Status(), details: out.Details}
	}
	for _, progs := range s.batches {
		refs := make([]progRef, len(progs))
		for i, p := range progs {
			refs[i] = referenceProgram(p.Src)
		}
		or.batches = append(or.batches, refs)
	}
	return or, nil
}

func referenceProgram(src string) progRef {
	res, err := analyzer.Analyze(src, analyzer.Options{Model: foundry.Model})
	if err != nil {
		return progRef{}
	}
	bf, err := analyzer.Baseline(src)
	if err != nil {
		return progRef{}
	}
	ref := progRef{ok: true, baseline: len(bf)}
	for _, d := range res.Diags {
		ref.codes = append(ref.codes, d.Code)
	}
	return ref
}

// runResponse is the part of a /run body the oracle checks.
type runResponse struct {
	Status  string   `json:"status"`
	Details []string `json:"details"`
	Cache   string   `json:"cache"`
}

// verdict is what checking one response yields besides pass/fail.
type verdict struct {
	cache    string // /run cache token
	programs int    // /analyze items
	diags    int    // /analyze static diagnostics
}

// check compares one response with the reference for its request.
func (or *oracle) check(o *op, code int, body []byte) (verdict, error) {
	if code != http.StatusOK {
		return verdict{}, fmt.Errorf("%s: status %d: %.200s", o.path, code, body)
	}
	if o.path == "/analyze" {
		return or.checkAnalyze(o, body)
	}
	var got runResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return verdict{}, fmt.Errorf("/run: decode: %w", err)
	}
	want := or.runs[o.cell]
	if got.Status != want.status || !reflect.DeepEqual(got.Details, want.details) {
		return verdict{}, fmt.Errorf("/run %s: got %s %q, want %s %q", o.body, got.Status, got.Details, want.status, want.details)
	}
	return verdict{cache: got.Cache}, nil
}

func (or *oracle) checkAnalyze(o *op, body []byte) (verdict, error) {
	var got serve.AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return verdict{}, fmt.Errorf("/analyze: decode: %w", err)
	}
	want := or.batches[o.batch]
	if len(got.Results) != len(want) {
		return verdict{}, fmt.Errorf("/analyze batch %d: %d items, want %d", o.batch, len(got.Results), len(want))
	}
	v := verdict{programs: len(want)}
	for i, item := range got.Results {
		var codes []string
		baseline := 0
		for _, f := range item.Findings {
			if f.Plane == "baseline" {
				baseline++
			} else {
				codes = append(codes, f.Code)
			}
		}
		ref := want[i]
		if (item.Code == http.StatusOK) != ref.ok || !reflect.DeepEqual(codes, ref.codes) || baseline != ref.baseline {
			return verdict{}, fmt.Errorf("/analyze batch %d item %s: code %d, static %v, baseline %d; want ok=%v, static %v, baseline %d",
				o.batch, item.Name, item.Code, codes, baseline, ref.ok, ref.codes, ref.baseline)
		}
		v.diags += len(codes)
	}
	return v, nil
}
