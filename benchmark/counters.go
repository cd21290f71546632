package main

import (
	"runtime"

	"repro/internal/net/wire"
)

// counters is one reading of every public counter the per-layer report
// uses: semantic-lock statistics summed over the live instances, the
// server's frame accounting, the Go runtime's allocation and GC totals,
// and the process's CPU time. All of them only grow, so two readings
// subtract field by field.
type counters [numCounters]uint64

const (
	cFastPath = iota
	cSlow
	cWaits
	cBatches
	cWaitNs
	cOptHits
	cOptRetries
	cOptRefusals
	cFramesIn
	cShed
	cErrs
	cFused   // fused unicast batches the server executed
	cBatched // frames inside those batches
	cMallocs
	cAllocBytes
	cGCs
	cGCPauseNs
	cUserNs
	cSysNs
	numCounters
)

// snapshot reads the counters; the workers must be parked (after the
// warm-up barrier) or gone, because instance.sems walks unsynchronized
// state.
func snapshot(inst instance) counters {
	var c counters
	for _, s := range inst.sems() {
		st := s.Stats()
		c[cFastPath] += st.FastPath
		c[cSlow] += st.Slow
		c[cWaits] += st.Waits
		c[cBatches] += st.Batches
		c[cWaitNs] += uint64(st.WaitNanos)
		c[cOptHits] += st.OptimisticHits
		c[cOptRetries] += st.OptimisticRetries
		c[cOptRefusals] += st.OptimisticRefusals
	}
	if srv := inst.server(); srv != nil {
		for k := 0; k < wire.KindMax; k++ {
			c[cFramesIn] += srv.Stats.FramesIn[k].Load()
		}
		c[cShed] = srv.Stats.Shed.Load()
		c[cErrs] = srv.Stats.Errors.Load()
		c[cFused] = srv.Stats.Batches.Load()
		c[cBatched] = srv.Stats.Batched.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = ms.Mallocs, ms.TotalAlloc
	c[cGCs], c[cGCPauseNs] = uint64(ms.NumGC), ms.PauseTotalNs
	user, sys := rusage()
	c[cUserNs], c[cSysNs] = uint64(user), uint64(sys)
	return c
}

func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c counters) add(b counters) counters {
	for i := range c {
		c[i] += b[i]
	}
	return c
}
