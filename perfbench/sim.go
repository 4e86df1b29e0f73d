package main

import (
	"fmt"
	"runtime"
	"time"

	"speakup/internal/exp"
	"speakup/internal/sweep"
)

// simDuration is the virtual time of every sim-fig2 cell: one grid
// takes about two and a half CPU seconds, so a run holds several
// repetitions of every cell.
const simDuration = 15 * time.Second

// simWorkers is the sweep's worker count. With one worker, cells run
// one after another, so the process CPU time between two Progress
// calls is one cell's cost, garbage collection included; the sim
// process also runs with GOMAXPROCS 1, so no idle P burns CPU in GC
// workers while the cell runs.
const simWorkers = 1

// simCell is what one grid cell produced; identical seeds must give
// identical cells.
type simCell struct {
	name                  string
	events                uint64
	servedGood, servedBad uint64
	goodAlloc, goodServed float64
	goodP50, goodP99      float64       // virtual seconds, good clients' served requests
	elapsed               time.Duration // wall
	cpu                   time.Duration // process CPU while the cell ran
}

func (c simCell) same(o simCell) bool {
	return c.name == o.name && c.events == o.events && c.servedGood == o.servedGood &&
		c.servedBad == o.servedBad && c.goodAlloc == o.goodAlloc && c.goodServed == o.goodServed &&
		c.goodP50 == o.goodP50 && c.goodP99 == o.goodP99
}

// fig2 runs the Figure 2 grid once through sweep.Engine (inside
// exp.Fig2) and returns its cells in grid order.
func fig2(seed int64, dur time.Duration) ([]simCell, *exp.Fig2Result) {
	var cells []simCell
	last := selfCPU()
	res := exp.Fig2(exp.Opts{
		Duration: dur, Seed: seed, Workers: simWorkers,
		Progress: func(_, total int, r sweep.Result) {
			if cells == nil {
				cells = make([]simCell, total)
			}
			now := selfCPU()
			c := simCell{name: r.Name, events: r.Result.Events, elapsed: r.Elapsed, cpu: now - last,
				servedGood: r.Result.ServedGood, servedBad: r.Result.ServedBad,
				goodAlloc: r.Result.GoodAllocation, goodServed: r.Result.FractionGoodServed}
			for _, g := range r.Result.Groups {
				if g.Good {
					c.goodP50, c.goodP99 = g.Latencies.Percentile(50), g.Latencies.Percentile(99)
				}
			}
			cells[r.Index] = c
			last = now
		},
	})
	return cells, res
}

// runSim measures sim-fig2: set-up is the grid at 1 ms of virtual time
// (config resolution, grid build, and every cell's deployment build,
// with almost nothing simulated); the measured part repeats the full
// grid until the run's seconds are spent, at least twice, and checks
// each repetition reproduces the first exactly.
//
// The end-to-end figures come from each cell's best repetition, in
// CPU time. On a shared host, interference only ever adds time: the
// hypervisor's steal stretches wall time but not CPU time, and a busy
// neighbour slows some repetitions more than others. The fastest
// repetition of a cell is therefore the closest reading of its own
// cost; medians over repetitions moved with the host's load between
// runs by up to a quarter.
func runSim(seed int64, seconds int) (map[string]float64, checks, error) {
	m := make(map[string]float64)
	var c checks
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		fig2(seed, time.Millisecond)
		setup = append(setup, time.Since(t0).Seconds())
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var (
		first  []simCell
		events uint64
		costs  []float64
		best   []time.Duration // per cell, the least CPU over repetitions
		cellMS []float64
		cellNS time.Duration
		reps   int
	)
	for reps < 2 || time.Since(start) < time.Duration(seconds)*time.Second {
		c0 := selfCPU()
		cells, res := fig2(seed, simDuration)
		cpu := (selfCPU() - c0).Seconds()
		reps++
		if first == nil {
			first = cells
			best = make([]time.Duration, len(cells))
			for i, cell := range cells {
				best[i] = cell.cpu
			}
		}
		var admits float64
		for i, cell := range cells {
			c.check(cell.same(first[i]), "cell %s differs from the first repetition", cell.name)
			events += cell.events
			admits += float64(cell.servedGood + cell.servedBad)
			cellMS = append(cellMS, float64(cell.elapsed)/1e6)
			cellNS += cell.elapsed
			best[i] = min(best[i], cell.cpu)
		}
		costs = append(costs, cpu*1e6/admits)
		for _, p := range res.Points {
			c.check(p.With > 0 && p.With <= 1 && p.Without >= 0 && p.Without <= 1,
				"fig2 f=%.1f: allocation out of range (with %.3f, without %.3f)", p.F, p.With, p.Without)
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	var gridAdmits, gridCPU float64
	bestMS := make([]float64, len(best))
	for i, cell := range first {
		gridAdmits += float64(cell.servedGood + cell.servedBad)
		gridCPU += best[i].Seconds()
		bestMS[i] = float64(best[i]) / 1e6
	}

	m["setup_s"] = median(setup)
	m["rss_mb"] = selfMaxRSSMB()
	m["admit_per_s"] = ratio(gridAdmits, gridCPU)
	m["server_cpu_us_per_admit"] = median(costs)
	m["wait_p50_ms"] = quantile(bestMS, 0.5)
	m["wait_p90_ms"] = quantile(bestMS, 0.9)
	m["sim_events_per_s"] = float64(events) / wall
	m["sim.events"] = float64(events) / float64(reps)
	m["sim.ns_per_event"] = ratio(float64(cellNS), float64(events))
	m["sim.allocs_per_event"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(events))
	m["sweep.cell_s_max"] = quantile(cellMS, 1) / 1e3

	// The f = 0.5 cell with speak-up on is churn-wire's twin.
	twin := -1
	for i, cell := range first {
		if cell.name == "fig2/f=0.5/on" {
			twin = i
		}
	}
	if twin < 0 {
		return nil, c, fmt.Errorf("sim-fig2: grid has no fig2/f=0.5/on cell")
	}
	tc := first[twin]
	m["good_share_ratio"] = tc.goodAlloc / 0.5
	m["good_served_frac"] = tc.goodServed
	m["good_wait_p50_ms"] = tc.goodP50 * 1e3
	m["good_wait_p99_ms"] = tc.goodP99 * 1e3
	return m, c, nil
}
