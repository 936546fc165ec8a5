package core

import (
	"context"
	"testing"

	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/query"
)

// Per-stage allocation budgets for the draw→validate→estimate→merge hot
// loop, measured on the warm path: scratch attached, pools primed, every
// current draw's verdict cached. These are the numbers the PR 9 reclamation
// bought — a budget increase is a performance regression and needs the same
// scrutiny as a latency one.
const (
	// drawAllocBudget covers one alias-table draw batch into reused scratch
	// (answerSpace.drawInto and shardedSpace.drawInto).
	drawAllocBudget = 0
	// validateAllocBudget covers the batch-validation entry when every draw
	// already has a verdict — the steady-state round where validation is a
	// cache sweep (answerSpace.prevalidate, shardedSpace.prevalidate).
	validateAllocBudget = 0
	// estimateAllocBudget covers one warm round's observation rebuild plus
	// the closed-form BLB MoE (observations + MoE): the rebuild runs on
	// pooled buffers and the MoE needs none.
	estimateAllocBudget = 0
	// mergeAllocBudget covers the stratified Horvitz–Thompson merge of a
	// sharded round (Regroup excluded — the engine merges via pooled
	// MoEStratified/EstimateStratified over per-round strata).
	mergeAllocBudget = 0
	// multiAccumBudget covers one warm multi-target accumulation round: the
	// shared-draw observation list with its flat Values/Has arena plus one
	// projection (multiObservationList + ProjectInto).
	multiAccumBudget = 0
)

// warmExecution prepares a figure-1 COUNT execution with scratch held, an
// initial sample drawn and every draw's verdict cached, so the per-stage
// benchmarks below measure exactly the steady-state round.
func warmExecution(t *testing.T) (*Execution, context.Context, func()) {
	t.Helper()
	e, _ := figure1Engine(t, Options{ErrorBound: 0.05, Seed: 21})
	p, err := e.Prepare(context.Background(), countQuery())
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release := x.holdScratch()
	x.firstSample()
	ctx := context.Background()
	x.prevalidateDraws(ctx)
	x.observations(ctx) // prime obs scratch and every lazy verdict
	return x, ctx, release
}

func TestAllocBudgetDraw(t *testing.T) {
	x, _, release := warmExecution(t)
	defer release()
	const k = 128
	x.scr.draws = x.sp.drawInto(x.scr.draws[:0], x.rng, k) // size the batch buffer
	allocs := testing.AllocsPerRun(200, func() {
		x.scr.draws = x.sp.drawInto(x.scr.draws[:0], x.rng, k)
	})
	if allocs > drawAllocBudget {
		t.Fatalf("draw stage allocates %.1f/op, budget %d", allocs, drawAllocBudget)
	}
}

func TestAllocBudgetValidateCached(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	allocs := testing.AllocsPerRun(200, func() {
		x.sp.prevalidate(ctx, x.drawIdx, x.scr)
	})
	if allocs > validateAllocBudget {
		t.Fatalf("validate stage (cached) allocates %.1f/op, budget %d", allocs, validateAllocBudget)
	}
}

func TestAllocBudgetEstimate(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	o := x.opts
	obs := x.observations(ctx)
	if _, err := estimate.MoE(query.Count, obs, o.Policy, o.guarantee(), nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		obs := x.observations(ctx)
		if _, err := estimate.MoE(query.Count, obs, o.Policy, o.guarantee(), nil); err != nil {
			panic(err)
		}
	})
	if allocs > estimateAllocBudget {
		t.Fatalf("estimate stage allocates %.1f/op, budget %d", allocs, estimateAllocBudget)
	}
}

func TestAllocBudgetStratifiedMerge(t *testing.T) {
	// Synthetic 4-stratum sample exercising the pooled merge exactly as a
	// sharded guarantee round does.
	obs := make([]estimate.Observation, 400)
	for i := range obs {
		obs[i] = estimate.Observation{
			Value:         float64(10 + i%17),
			Prob:          0.002 + 0.001*float64(i%5),
			Correct:       i%3 != 0,
			Stratum:       i % 4,
			StratumWeight: 0.25,
		}
	}
	strata := estimate.Regroup(obs)
	cfg := estimate.DefaultGuarantee()
	if _, err := estimate.MoEStratified(query.Sum, strata, estimate.SampleSize, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := estimate.EstimateStratified(query.Sum, strata, estimate.SampleSize); err != nil {
			panic(err)
		}
		if _, err := estimate.MoEStratified(query.Sum, strata, estimate.SampleSize, cfg); err != nil {
			panic(err)
		}
	})
	if allocs > mergeAllocBudget {
		t.Fatalf("stratified merge allocates %.1f/op, budget %d", allocs, mergeAllocBudget)
	}
}

func TestAllocBudgetMultiAccumulation(t *testing.T) {
	x, ctx, release := warmExecution(t)
	defer release()
	attrs := []kg.AttrID{kg.InvalidAttr, kg.InvalidAttr, kg.InvalidAttr}
	mobs, _ := x.multiObservationList(ctx, attrs)
	x.scr.proj = estimate.ProjectInto(x.scr.proj[:0], mobs, 0, query.Count)
	allocs := testing.AllocsPerRun(100, func() {
		mobs, _ := x.multiObservationList(ctx, attrs)
		x.scr.proj = estimate.ProjectInto(x.scr.proj[:0], mobs, 0, query.Count)
	})
	if allocs > multiAccumBudget {
		t.Fatalf("multi-target accumulation allocates %.1f/op, budget %d", allocs, multiAccumBudget)
	}
}
