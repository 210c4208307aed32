package rtosmodel_test

// The benchmark harness of the reproduction: one benchmark per figure/claim
// of the paper's evaluation, as indexed in DESIGN.md (E1..E11). Absolute
// wall-clock numbers depend on the host; the shapes that must hold are
// documented in EXPERIMENTS.md — chiefly that the procedural RTOS model
// (section 4.2) simulates the same behaviour with fewer kernel thread
// switches and less wall time than the RTOS-thread model (section 4.1).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"strconv"
	"testing"

	rtosmodel "repro"
	"repro/internal/experiments"
	"repro/internal/mpeg2"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchFigure6 runs one full Figure 6 clock cycle on the given engine.
func benchFigure6(b *testing.B, eng rtosmodel.EngineKind) {
	b.ReportAllocs()
	var switches uint64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure6(experiments.Figure6Config{Engine: eng})
		switches = r.Activations
	}
	b.ReportMetric(float64(switches), "switches/run")
}

// BenchmarkEngineThreaded is E1: the section 4.1 RTOS-thread model on the
// Figure 6 workload.
func BenchmarkEngineThreaded(b *testing.B) { benchFigure6(b, rtosmodel.EngineThreaded) }

// BenchmarkEngineProcedural is E2: the section 4.2 procedure-call model on
// the same workload; compare switches/run and ns/op with the threaded bench.
func BenchmarkEngineProcedural(b *testing.B) { benchFigure6(b, rtosmodel.EngineProcedural) }

// BenchmarkEngineComparison is E3: the section 4 comparison across task
// counts. Sub-benchmark names carry the engine and task count; the
// switches/op metric is the paper's "number of thread switches".
func BenchmarkEngineComparison(b *testing.B) {
	for _, n := range []int{2, 5, 10, 20, 50} {
		for _, eng := range []rtosmodel.EngineKind{rtosmodel.EngineProcedural, rtosmodel.EngineThreaded} {
			b.Run(benchName(eng, n), func(b *testing.B) {
				b.ReportAllocs()
				var switches uint64
				for i := 0; i < b.N; i++ {
					r := experiments.RunEngineComparison1(eng, n, 20*sim.Ms)
					switches = r
				}
				b.ReportMetric(float64(switches), "switches/run")
			})
		}
	}
}

func benchName(eng rtosmodel.EngineKind, n int) string {
	return eng.String() + "/tasks=" + strconv.Itoa(n)
}

// BenchmarkFigure6 is E4: building, simulating and extracting the annotated
// measurements of the Figure 6 TimeLine.
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure6(experiments.Figure6Config{})
		if r.F2Start-r.F1End != 15*sim.Us {
			b.Fatal("figure 6 timing broken")
		}
	}
}

// BenchmarkFigure7 is E5: the mutual-exclusion blocking scenario.
func BenchmarkFigure7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure7(rtos.EngineProcedural, experiments.Figure7Plain)
		if r.ResourceWait <= 0 {
			b.Fatal("figure 7 blocking broken")
		}
	}
}

// BenchmarkStatistics is E6: computing the Figure 8 statistics view from a
// recorded trace.
func BenchmarkStatistics(b *testing.B) {
	r := experiments.RunFigure7(rtos.EngineProcedural, experiments.Figure7Plain)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := r.Sys.Stats(0)
		if len(st.Tasks) == 0 {
			b.Fatal("empty stats")
		}
	}
}

// mpeg2Trace simulates eight frames of the MPEG-2 SoC and returns its system,
// whose recorded trace the artifact-rendering benchmarks render.
func mpeg2Trace() *rtos.System {
	soc := mpeg2.Build(mpeg2.Config{})
	soc.Sys.RunUntil(8 * mpeg2.FramePeriod)
	return soc.Sys
}

// BenchmarkStatisticsSoC computes the statistics view of the 18-task MPEG-2
// SoC trace: a trace large enough that a per-task rescan of the transitions
// shows in ns/op.
func BenchmarkStatisticsSoC(b *testing.B) {
	sys := mpeg2Trace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := sys.Stats(0); len(st.Tasks) == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkPerfettoExport renders the MPEG-2 SoC trace as a Perfetto
// trace_event file, the artifact rtossim -perfetto and the daemon serve.
func BenchmarkPerfettoExport(b *testing.B) {
	sys := mpeg2Trace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.WritePerfetto(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
}

// BenchmarkMetricsJSON renders the MPEG-2 SoC's metrics registry as the
// metrics.json artifact rtossim -metrics and the daemon serve.
func BenchmarkMetricsJSON(b *testing.B) {
	sys := mpeg2Trace()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.WriteMetricsJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
}

// BenchmarkRecorderAppend measures the trace store alone: one op records
// 4096 state changes and 4096 overhead segments into a fresh recorder
// through interned name handles, as the RTOS model's dispatch and overhead
// paths do. B/op and allocs/op are the store's growth cost.
func BenchmarkRecorderAppend(b *testing.B) {
	const n = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var now sim.Time
		rec := trace.NewRecorder(func() sim.Time { return now })
		cpu := rec.Intern("cpu0")
		tasks := [...]trace.Name{rec.Intern("t0"), rec.Intern("t1"), rec.Intern("t2"), rec.Intern("t3")}
		for j := 0; j < n; j++ {
			now += sim.Us
			task := tasks[j%len(tasks)]
			rec.RecordOverhead(cpu, task, 0, trace.OverheadContextLoad, now-sim.Us, now)
			rec.RecordState(task, cpu, 0, trace.StateRunning)
		}
	}
}

// BenchmarkTimelineRender benchmarks the ASCII TimeLine renderer on the
// Figure 6 trace.
func BenchmarkTimelineRender(b *testing.B) {
	r := experiments.RunFigure6(experiments.Figure6Config{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := r.Fig.Sys.Timeline(rtosmodel.TimelineOptions{Width: 110}); len(out) == 0 {
			b.Fatal("empty timeline")
		}
	}
}

// BenchmarkMPEG2SoC is E7: one frame of the 18-task six-processor MPEG-2
// codec SoC per iteration.
func BenchmarkMPEG2SoC(b *testing.B) {
	for _, eng := range []rtosmodel.EngineKind{rtosmodel.EngineProcedural, rtosmodel.EngineThreaded} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := mpeg2.Run(mpeg2.Config{Engine: eng}, mpeg2.FramePeriod)
				if res.TaskCount != 18 {
					b.Fatal("topology broken")
				}
			}
		})
	}
}

// BenchmarkOverheadFormula is E8: the periodic task set under a
// formula-based scheduling duration.
func BenchmarkOverheadFormula(b *testing.B) {
	b.ReportAllocs()
	ov := rtosmodel.Overheads{
		Scheduling:  rtosmodel.PerReadyTask(20*sim.Us, 20*sim.Us),
		ContextSave: rtosmodel.Fixed(20 * sim.Us),
		ContextLoad: rtosmodel.Fixed(20 * sim.Us),
	}
	for i := 0; i < b.N; i++ {
		r := experiments.RunOverheadSweep(ov, "formula", 100*sim.Ms)
		if r.MeanScheduling == 0 {
			b.Fatal("no scheduling recorded")
		}
	}
}

// BenchmarkPolicies is E10: the periodic task set under each scheduling
// policy.
func BenchmarkPolicies(b *testing.B) {
	cases := []struct {
		name   string
		policy rtosmodel.Policy
		rm     bool
	}{
		{"priority-rm", rtosmodel.PriorityPreemptive{}, true},
		{"fifo", rtosmodel.FIFO{}, false},
		{"round-robin", rtosmodel.RoundRobin{Slice: 2 * sim.Ms}, false},
		{"edf", rtosmodel.EDF{}, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.RunPolicyComparison(c.policy, c.rm, 100*sim.Ms)
			}
		})
	}
}

// BenchmarkPriorityInheritance is E11: the three-task inversion scenario
// under each remedy.
func BenchmarkPriorityInheritance(b *testing.B) {
	for _, mode := range []experiments.Figure7Mode{
		experiments.Figure7Plain, experiments.Figure7Inherit, experiments.Figure7NoPreempt,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.RunInversion(rtos.EngineProcedural, mode)
			}
		})
	}
}

// BenchmarkSMPGlobal is E16: a dual-core processor under the global
// scheduling domain — three periodic tasks sharing one ready queue and
// migrating between cores. Untraced, so the numbers isolate the scheduler
// hot path; migrations/run confirms the global domain is actually exercised.
func BenchmarkSMPGlobal(b *testing.B) {
	for _, eng := range []rtosmodel.EngineKind{rtosmodel.EngineProcedural, rtosmodel.EngineThreaded} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			var migrations uint64
			for i := 0; i < b.N; i++ {
				sys := rtosmodel.NewUntracedSystem()
				cpu := sys.NewProcessor("cpu0", rtosmodel.Config{
					Engine:    eng,
					Cores:     2,
					Domain:    rtosmodel.DomainGlobal,
					Overheads: rtosmodel.UniformOverheads(1 * sim.Us),
				})
				for _, t := range []struct {
					name   string
					prio   int
					period sim.Time
					exec   sim.Time
				}{
					{"sensor", 3, 100 * sim.Us, 60 * sim.Us},
					{"control", 2, 90 * sim.Us, 50 * sim.Us},
					{"logger", 1, 150 * sim.Us, 55 * sim.Us},
				} {
					t := t
					cpu.NewPeriodicTask(t.name, rtosmodel.TaskConfig{
						Priority: t.prio,
						Period:   t.period,
					}, func(c *rtosmodel.TaskCtx, cycle int) {
						c.Execute(t.exec)
					})
				}
				sys.RunUntil(20 * sim.Ms)
				migrations = cpu.Migrations()
				sys.Shutdown()
				if migrations == 0 {
					b.Fatal("global domain produced no migrations")
				}
			}
			b.ReportMetric(float64(migrations), "migrations/run")
		})
	}
}

// BenchmarkInterrupts is E13: the interrupt-handling design ablation.
func BenchmarkInterrupts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunInterruptAblation(200*sim.Us, 5*sim.Ms)
		if len(res) != 3 {
			b.Fatal("ablation broken")
		}
	}
}

// BenchmarkAperiodicServers is E14: the aperiodic-service ablation.
func BenchmarkAperiodicServers(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunServerAblation(int64(i), 50*sim.Ms)
		if len(res) != 4 {
			b.Fatal("ablation broken")
		}
	}
}

// BenchmarkBusInterconnect is E15: the MPEG-2 SoC with processor-crossing
// queues routed over a shared bus.
func BenchmarkBusInterconnect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := mpeg2.Run(mpeg2.Config{BusPerByte: 50 * sim.Ns}, mpeg2.FramePeriod)
		if r.BusTransfers == 0 {
			b.Fatal("no bus transfers")
		}
	}
}

// BenchmarkKernelProcessSwitch measures the raw cost of one kernel process
// activation in the simulation substrate: a single process waking from a
// timed wait once per iteration.
func BenchmarkKernelProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	k.Spawn("t", func(p *sim.Proc) {
		for {
			p.Wait(sim.Us)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(sim.Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkManyTasks is the timed-queue stress: thousands of processes on
// dense periodic timers (co-prime-ish periods, so wakeups rarely coincide and
// the queue stays deep): the kernel-level counterpart of the timed queue's
// own microbenchmarks. The timeout variant layers on cancellation traffic (a
// WaitTimeout whose event always wins), where the queue unlinks a cancelled
// entry in O(1). The sub-benchmark names keep the backend=wheel suffix of
// the timing wheel that preceded the radix heap, so results stay comparable
// with earlier runs.
func BenchmarkManyTasks(b *testing.B) {
	b.Run("periodic/backend=wheel", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.New()
		const tasks = 4096
		for i := 0; i < tasks; i++ {
			period := sim.Time(2000+13*(i%401)) * sim.Ns // densely packed wakeups
			k.Spawn("t", func(p *sim.Proc) {
				for {
					p.Wait(period)
				}
			})
		}
		k.RunFor(100 * sim.Us) // reach steady state
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.RunFor(sim.Us)
		}
		b.StopTimer()
		k.Shutdown()
	})
	b.Run("timeouts/backend=wheel", func(b *testing.B) {
		b.ReportAllocs()
		k := sim.New()
		ev := k.NewEvent("pulse")
		const waiters = 2048
		for i := 0; i < waiters; i++ {
			// Far-future timeout, always cancelled by the event: every
			// wakeup schedules and then kills one timed entry.
			k.Spawn("w", func(p *sim.Proc) {
				for {
					p.WaitTimeout(sim.Ms, ev)
				}
			})
		}
		k.Spawn("pulser", func(p *sim.Proc) {
			for {
				p.Wait(sim.Us)
				ev.Notify()
			}
		})
		k.RunFor(100 * sim.Us)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.RunFor(sim.Us)
		}
		b.StopTimer()
		k.Shutdown()
	})
}

// BenchmarkManyTaskBodies compares the two task body forms on a dense
// periodic population at the RTOS level: goroutine bodies pay one kernel
// process activation (a coroutine switch) per job, continuation bodies are
// resumed inline by kernel methods with no process at all. Same workload,
// same schedule — only the per-activation switch differs, so continuation
// mode must win on ns/op.
func BenchmarkManyTaskBodies(b *testing.B) {
	const tasks = 1024
	build := func(form string) *rtos.System {
		sys := rtos.NewUntracedSystem()
		cpu := sys.NewProcessor("cpu", rtosmodel.Config{})
		for i := 0; i < tasks; i++ {
			period := sim.Time(1_000_000+13_000*(i%401)) * sim.Ns // 1ms..~6.2ms
			cfg := rtosmodel.TaskConfig{Priority: 1 + i%7, Period: period}
			name := "t" + strconv.Itoa(i)
			if form == "continuation" {
				cpu.NewPeriodicContTask(name, cfg, rtos.BuildProgram().Compute(200*sim.Ns).Build())
			} else {
				cpu.NewPeriodicTask(name, cfg, func(c *rtosmodel.TaskCtx, cycle int) {
					c.Execute(200 * sim.Ns)
				})
			}
		}
		return sys
	}
	for _, form := range []string{"goroutine", "continuation"} {
		b.Run("engine="+form, func(b *testing.B) {
			b.ReportAllocs()
			sys := build(form)
			sys.RunFor(10 * sim.Ms) // reach steady state
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunFor(10 * sim.Us)
			}
			b.StopTimer()
			sys.Shutdown()
		})
	}
}

// BenchmarkWaitAnyFanout measures a wide sensitivity list: one process
// blocked on 256 events while a notifier fires them round-robin. The cost
// under test is waiter-list subscribe/unsubscribe across the fanout on every
// wakeup.
func BenchmarkWaitAnyFanout(b *testing.B) {
	b.ReportAllocs()
	k := sim.New()
	const fanout = 256
	events := make([]*sim.Event, fanout)
	for i := range events {
		events[i] = k.NewEvent("e")
	}
	k.Spawn("waiter", func(p *sim.Proc) {
		for {
			p.WaitAny(events...)
		}
	})
	k.Spawn("notifier", func(p *sim.Proc) {
		for i := 0; ; i++ {
			p.Wait(sim.Us)
			events[i%fanout].Notify()
		}
	})
	k.RunFor(100 * sim.Us)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(sim.Us)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkContinuationSwitch is the continuation twin of
// BenchmarkRTOSContextSwitch: the same two-task event ping-pong with the
// bodies expressed as yield-op programs resumed inline by the kernel. The
// delta against the goroutine bench is the process switch the continuation
// engine removes.
func BenchmarkContinuationSwitch(b *testing.B) {
	for _, eng := range []rtosmodel.EngineKind{rtosmodel.EngineProcedural, rtosmodel.EngineThreaded} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			sys := rtos.NewUntracedSystem()
			cpu := sys.NewProcessor("cpu", rtosmodel.Config{Engine: eng})
			ping := rtosmodel.NewEvent(sys.Rec, "ping", rtosmodel.Counter)
			pong := rtosmodel.NewEvent(sys.Rec, "pong", rtosmodel.Counter)
			cpu.NewContTask("a", rtosmodel.TaskConfig{Priority: 2}, rtos.BuildProgram().
				Loop(-1).Compute(sim.Us).Signal(ping).WaitOn(pong).End().Build())
			cpu.NewContTask("b", rtosmodel.TaskConfig{Priority: 1}, rtos.BuildProgram().
				Loop(-1).WaitOn(ping).Compute(sim.Us).Signal(pong).End().Build())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunFor(2 * sim.Us)
			}
			b.StopTimer()
			sys.Shutdown()
		})
	}
}

// BenchmarkRTOSContextSwitch measures one full RTOS-level context switch
// (block + elect + dispatch with zero overhead durations) per iteration: two
// tasks ping-ponging through counter events.
func BenchmarkRTOSContextSwitch(b *testing.B) {
	for _, eng := range []rtosmodel.EngineKind{rtosmodel.EngineProcedural, rtosmodel.EngineThreaded} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			// Untraced: the trace would otherwise grow with b.N and distort
			// the timing.
			sys := rtos.NewUntracedSystem()
			cpu := sys.NewProcessor("cpu", rtosmodel.Config{Engine: eng})
			ping := rtosmodel.NewEvent(sys.Rec, "ping", rtosmodel.Counter)
			pong := rtosmodel.NewEvent(sys.Rec, "pong", rtosmodel.Counter)
			cpu.NewTask("a", rtosmodel.TaskConfig{Priority: 2}, func(c *rtosmodel.TaskCtx) {
				for {
					c.Execute(sim.Us)
					ping.Signal(c)
					pong.Wait(c)
				}
			})
			cpu.NewTask("b", rtosmodel.TaskConfig{Priority: 1}, func(c *rtosmodel.TaskCtx) {
				for {
					ping.Wait(c)
					c.Execute(sim.Us)
					pong.Signal(c)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunFor(2 * sim.Us)
			}
			b.StopTimer()
			sys.Shutdown()
		})
	}
}
