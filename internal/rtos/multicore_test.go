package rtos_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// smpDomains enumerates the scheduling domains under test.
var smpDomains = []rtos.SchedDomain{rtos.DomainPartitioned, rtos.DomainGlobal}

// smpWorkload builds a deterministic workload of periodic compute tasks and
// an event-driven handler on a processor with the given core count and
// scheduling domain, runs it to the horizon, and returns a
// placement-sensitive trace signature plus the recorder. In the partitioned
// domain, tasks are spread round-robin over the cores via affinity; in the
// global domain, the RTOS places them.
//
// The workload deliberately avoids cross-core contention on shared objects:
// on a multi-core processor, two cores reaching a mutex at the same simulated
// instant are tie-broken by delta-cycle order, which legitimately differs
// between the two engine mechanisms (the threaded engine's scheduler threads
// add delta cycles — the very overhead the paper's section 4.2 removes).
// Cross-engine timing equivalence is asserted for workloads free of such
// same-instant races; richer contention is exercised by smpContendedWorkload
// under per-engine invariants instead.
func smpWorkload(seed int64, eng rtos.EngineKind, cores int, domain rtos.SchedDomain, horizon sim.Time) (string, *trace.Recorder) {
	rng := rand.New(rand.NewSource(seed))
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Cores:     cores,
		Domain:    domain,
		Overheads: rtos.UniformOverheads(sim.Time(1+rng.Intn(2)) * sim.Us),
	})

	affinity := func(i int) int {
		if domain == rtos.DomainPartitioned {
			return i % cores
		}
		return 0
	}

	ev := comm.NewEvent(sys.Rec, "ev", comm.Counter)

	nPeriodic := 3 + rng.Intn(3)
	for i := 0; i < nPeriodic; i++ {
		// Per-task sub-microsecond offsets on the period and execution time
		// keep every task's release/block instants on its own time grid, so
		// no two independent event streams collide at one instant (see the
		// function comment on same-instant races).
		execT := sim.Time(10+rng.Intn(60))*sim.Us + sim.Time(7*(i+1))*sim.Ns
		cpu.NewPeriodicTask(fmt.Sprintf("p%d", i), rtos.TaskConfig{
			Priority: rng.Intn(8),
			Period:   sim.Time(91+2*rng.Intn(100))*sim.Us + sim.Time(13*(i+1))*sim.Ns,
			StartAt:  sim.Time(1+7*i) * sim.Us,
			Affinity: affinity(i),
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(execT)
		})
	}
	// One event-driven handler woken by a hardware source: its arrivals are
	// the canonical trigger for idle-core claims and (global domain) migration.
	cpu.NewTask("handler", rtos.TaskConfig{
		Priority: 9,
		Affinity: affinity(nPeriodic),
	}, func(c *rtos.TaskCtx) {
		for {
			ev.Wait(c)
			c.Execute(15 * sim.Us)
		}
	})
	// The hardware period sits off the microsecond grid of the compute tasks:
	// a signal arriving at the very instant a task blocks or is released makes
	// the preemption decision a same-instant race, which the two engines
	// resolve at different delta cycles (see the function comment).
	period := sim.Time(73+2*rng.Intn(75))*sim.Us + 333*sim.Ns
	sys.NewHWTask("hw", rtos.HWConfig{}, func(c *rtos.HWCtx) {
		for {
			c.Wait(period)
			ev.Signal(c)
		}
	})

	sys.RunUntil(horizon)
	sys.Shutdown()
	return smpSignature(sys.Rec, horizon), sys.Rec
}

// smpContendedWorkload extends smpWorkload with a shared mutex contended
// across cores. Cross-core same-instant contention is tie-broken by
// delta-cycle order, so this workload is only checked against per-engine
// properties (core exclusivity, determinism), never cross-engine equality.
func smpContendedWorkload(seed int64, eng rtos.EngineKind, cores int, domain rtos.SchedDomain, horizon sim.Time) (string, *trace.Recorder) {
	rng := rand.New(rand.NewSource(seed))
	sys := rtos.NewSystem()
	cpu := sys.NewProcessor("cpu0", rtos.Config{
		Engine:    eng,
		Cores:     cores,
		Domain:    domain,
		Overheads: rtos.UniformOverheads(sim.Time(rng.Intn(3)) * sim.Us),
	})
	affinity := func(i int) int {
		if domain == rtos.DomainPartitioned {
			return i % cores
		}
		return 0
	}
	shared := comm.NewShared(sys.Rec, "sv", 0)
	nTasks := 4 + rng.Intn(3)
	for i := 0; i < nTasks; i++ {
		execT := sim.Time(10+rng.Intn(60)) * sim.Us
		lockEvery := 1 + rng.Intn(3)
		cpu.NewPeriodicTask(fmt.Sprintf("p%d", i), rtos.TaskConfig{
			Priority: rng.Intn(8),
			Period:   sim.Time(90+rng.Intn(200)) * sim.Us,
			StartAt:  sim.Time(rng.Intn(80)) * sim.Us,
			Affinity: affinity(i),
		}, func(c *rtos.TaskCtx, cycle int) {
			c.Execute(execT)
			if cycle%lockEvery == 0 {
				shared.Lock(c)
				c.Execute(execT / 4)
				shared.Set(c, cycle)
				shared.Unlock(c)
			}
		})
	}
	sys.RunUntil(horizon)
	sys.Shutdown()
	return smpSignature(sys.Rec, horizon), sys.Rec
}

// smpSignature extends traceSignature with core placement: every Running
// transition is tagged with the core it was dispatched on, and the migration
// records are appended (sorted, so same-instant interleavings between the
// engines do not create spurious diffs). Two engines agreeing on this string
// agree not only on timing but on which core ran each job.
func smpSignature(rec *trace.Recorder, end sim.Time) string {
	var b strings.Builder
	b.WriteString(traceSignature(rec, end))
	for _, task := range rec.SortedTasks() {
		fmt.Fprintf(&b, "\nplace %s:", task)
		for c := range rec.StateChanges() {
			if c.Task != task || c.At >= end || c.State != trace.StateRunning {
				continue
			}
			fmt.Fprintf(&b, " %v@%d", c.At, c.Core)
		}
	}
	var migs []string
	for m := range rec.Migrations() {
		if m.At >= end {
			continue
		}
		migs = append(migs, fmt.Sprintf("migr %v %s %d->%d", m.At, m.Task, m.From, m.To))
	}
	sort.Strings(migs)
	if len(migs) > 0 {
		b.WriteByte('\n')
		b.WriteString(strings.Join(migs, "\n"))
	}
	return b.String()
}

// smpSignatureGoldens pins the SHA-256 of the seed-0 placement signature for
// every (cores, domain) configuration — both engines must produce it. They
// guard the multi-core dispatch protocol the same way traceExportGoldens
// guards the single-core one: regenerate only for an intentional model
// semantics change.
var smpSignatureGoldens = map[string]string{
	// 1-core partitioned and global intentionally share a hash: a single-core
	// global domain degenerates to the paper's single-CPU model.
	"1core-partitioned": "b78a82cc04bdd7ab298377ba364cf1651cb625e333596fce2f0fce0d9211954a",
	"1core-global":      "b78a82cc04bdd7ab298377ba364cf1651cb625e333596fce2f0fce0d9211954a",
	"2core-partitioned": "efaa73b7921496743ac08eef8dde8a52f8134c8c801ae8c0e8a636aa5ad7a7fe",
	"2core-global":      "5b848f75e323515ba9a1e4a2139dfe54d1902117c5efd90fefe9a6e2aea1bd85",
	"4core-partitioned": "6cd2d75d742ed4019f4c0d874484ec1e44baa4e740f5dd9ded8fb74fbda4e2b5",
	"4core-global":      "d05815799f45b938142fc0cd75185b9b0e646de5538e2eada8fbbd6414a0cec4",
}

// TestMultiCoreEngineEquivalence extends the central equivalence property to
// multi-core processors: across {1, 2, 4} cores and both scheduling domains,
// the threaded and procedural engines must produce identical task timelines,
// overhead windows, core placements and migrations.
func TestMultiCoreEngineEquivalence(t *testing.T) {
	const horizon = 2 * sim.Ms
	for _, cores := range []int{1, 2, 4} {
		for _, domain := range smpDomains {
			t.Run(fmt.Sprintf("%dcore-%v", cores, domain), func(t *testing.T) {
				for seed := int64(0); seed < 12; seed++ {
					sigP, recP := smpWorkload(seed, rtos.EngineProcedural, cores, domain, horizon)
					sigT, recT := smpWorkload(seed, rtos.EngineThreaded, cores, domain, horizon)
					if sigP != sigT {
						t.Fatalf("seed %d: traces diverge:\n%s", seed, trace.Diff(recP, recT, horizon, 8))
					}
					if seed == 0 {
						key := fmt.Sprintf("%dcore-%v", cores, domain)
						sum := sha256.Sum256([]byte(sigP))
						if got := hex.EncodeToString(sum[:]); got != smpSignatureGoldens[key] {
							t.Errorf("%s: signature hash changed:\n  got  %s\n  want %s", key, got, smpSignatureGoldens[key])
						}
					}
				}
			})
		}
	}
}

// TestMultiCoreDeterminism re-runs each (cores, domain) configuration twice
// per engine and demands byte-identical placement signatures.
func TestMultiCoreDeterminism(t *testing.T) {
	const horizon = sim.Ms
	workloads := map[string]func(int64, rtos.EngineKind, int, rtos.SchedDomain, sim.Time) (string, *trace.Recorder){
		"plain":     smpWorkload,
		"contended": smpContendedWorkload,
	}
	for name, build := range workloads {
		for _, cores := range []int{2, 4} {
			for _, domain := range smpDomains {
				for _, eng := range engines() {
					a, _ := build(7, eng, cores, domain, horizon)
					b, _ := build(7, eng, cores, domain, horizon)
					if a != b {
						t.Fatalf("%s %v %dcore %v: two runs of the same workload differ", name, eng, cores, domain)
					}
				}
			}
		}
	}
}

// checkCoreExclusivity reconstructs per-core Running intervals from the
// core-tagged state stream and verifies the fundamental SMP invariants: a
// core never hosts two overlapping Running intervals, and a task is never
// Running on two cores at the same simulated instant.
func checkCoreExclusivity(t *testing.T, rec *trace.Recorder, nCores int, end sim.Time) {
	t.Helper()
	type interval struct {
		task       string
		core       int
		start, end sim.Time
	}
	type open struct {
		core  int
		since sim.Time
	}
	running := map[string]open{}
	var ivs []interval
	for c := range rec.StateChanges() {
		if c.CPU == "" || strings.HasPrefix(c.Task, "isr:") {
			continue // hardware tasks and ISRs are not core-bound
		}
		if o, ok := running[c.Task]; ok {
			if c.At > o.since {
				ivs = append(ivs, interval{c.Task, o.core, o.since, c.At})
			}
			delete(running, c.Task)
		}
		if c.State == trace.StateRunning {
			running[c.Task] = open{c.Core, c.At}
		}
	}
	for task, o := range running {
		if end > o.since {
			ivs = append(ivs, interval{task, o.core, o.since, end})
		}
	}
	perCore := make([][]interval, nCores)
	for _, iv := range ivs {
		if iv.core < 0 || iv.core >= nCores {
			t.Fatalf("task %s running on core %d of a %d-core processor", iv.task, iv.core, nCores)
		}
		perCore[iv.core] = append(perCore[iv.core], iv)
	}
	for core, list := range perCore {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
		for i := 1; i < len(list); i++ {
			if list[i].start < list[i-1].end {
				t.Fatalf("core %d: overlapping running intervals %s[%v..%v] and %s[%v..%v]",
					core, list[i-1].task, list[i-1].start, list[i-1].end,
					list[i].task, list[i].start, list[i].end)
			}
		}
	}
	// Per-task exclusivity across cores: no two intervals of one task overlap.
	perTask := map[string][]interval{}
	for _, iv := range ivs {
		perTask[iv.task] = append(perTask[iv.task], iv)
	}
	for task, list := range perTask {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
		for i := 1; i < len(list); i++ {
			if list[i].start < list[i-1].end {
				t.Fatalf("task %s running on core %d and core %d at the same instant (%v..%v vs %v..%v)",
					task, list[i-1].core, list[i].core,
					list[i-1].start, list[i-1].end, list[i].start, list[i].end)
			}
		}
	}
}

// TestSMPInvariants verifies core exclusivity over the multi-core workload
// matrix on both engines, and that the global domain actually migrates tasks
// (otherwise it would be indistinguishable from partitioned and the invariant
// check would be vacuous).
func TestSMPInvariants(t *testing.T) {
	const horizon = 2 * sim.Ms
	migrated := false
	builders := []func(int64, rtos.EngineKind, int, rtos.SchedDomain, sim.Time) (string, *trace.Recorder){
		smpWorkload, smpContendedWorkload,
	}
	for _, build := range builders {
		for _, cores := range []int{2, 4} {
			for _, domain := range smpDomains {
				for _, eng := range engines() {
					for seed := int64(0); seed < 6; seed++ {
						_, rec := build(seed, eng, cores, domain, horizon)
						checkCoreExclusivity(t, rec, cores, horizon)
						if domain == rtos.DomainPartitioned && len(slices.Collect(rec.Migrations())) > 0 {
							t.Fatalf("%v %dcore partitioned: unexpected migrations", eng, cores)
						}
						if domain == rtos.DomainGlobal && len(slices.Collect(rec.Migrations())) > 0 {
							migrated = true
						}
					}
				}
			}
		}
	}
	if !migrated {
		t.Error("no workload produced a migration in the global domain")
	}
}
