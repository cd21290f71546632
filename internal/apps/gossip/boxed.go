// Boxed-key entry points and the one body of each section: the V forms
// below and the Resilient ErrV forms (resilient_boxed.go) run the same
// body, and differ only in the envelope and the patience they pass.
//
// Converting a Go string to the runtime's Value (an interface) costs a
// string header per conversion — on the caller's stack when nothing
// keeps the key, on the heap when something does. The TCP server interns
// each group/member name it decodes into a pre-boxed core.Value once per
// connection, so the V variants below run the whole decode→route→respond
// path without allocating; the string-keyed methods (gossip.go) box at
// the call into them, so in process and over the wire a section is the
// same code. TestBoxedEquivalence pins that the two forms agree.
//
// The V variants select modes through the interned fixed-arity
// selectors.

package gossip

import (
	"time"

	"repro/internal/adt"
	"repro/internal/core"
)

// RegisterV is Register with pre-boxed keys.
func (o *Ours) RegisterV(group, member core.Value, conn *Conn) {
	core.Atomically(func(tx *core.Txn) {
		_ = o.register(tx, group, member, conn, core.Forever)
	})
}

// UnregisterV is Unregister with pre-boxed keys.
func (o *Ours) UnregisterV(group, member core.Value) {
	core.Atomically(func(tx *core.Txn) {
		_ = o.unregister(tx, group, member, core.Forever)
	})
}

// UnicastV is Unicast with pre-boxed keys.
func (o *Ours) UnicastV(group, dst core.Value, payload []byte) {
	core.Atomically(func(tx *core.Txn) {
		_ = o.unicast(tx, group, dst, payload, core.Forever)
	})
}

// MulticastV is Multicast with a pre-boxed key.
func (o *Ours) MulticastV(group core.Value, payload []byte) {
	core.Atomically(func(tx *core.Txn) {
		_ = o.multicast(tx, group, payload, core.Forever)
	})
}

// The section bodies. Each waits at most patience per acquisition —
// core.Forever for the blocking V forms, which therefore have no error
// to handle, the policy's patience for the Resilient ErrV forms — and
// returns the *core.StallError of one that timed out; the section
// epilogue releases what was already held. Every ADT mutation and every
// send comes after the body's last acquisition, so a stalled body has
// changed nothing but, in register, created an empty member map under
// the outer lock (which any later register completes idempotently).

func (o *Ours) register(tx *core.Txn, group, member core.Value, conn *Conn, patience time.Duration) error {
	if err := tx.LockWithin(o.groupsSem, o.regGroupsRef.Mode1(group), o.groupsRank, patience); err != nil {
		return err
	}
	var mm *memberMap
	if v := o.groups.Get(group); v != nil {
		mm = v.(*memberMap)
	} else {
		mm = &memberMap{m: adt.NewHashMap(), sem: core.NewSemantic(o.memTable)}
		o.groups.Put(group, mm)
	}
	if err := tx.LockWithin(mm.sem, o.regMem2(member, conn), o.memRank, patience); err != nil {
		return err
	}
	o.fault("register")
	mm.m.Put(member, conn)
	return nil
}

func (o *Ours) unregister(tx *core.Txn, group, member core.Value, patience time.Duration) error {
	if err := tx.LockWithin(o.groupsSem, o.unregGRef.Mode1(group), o.groupsRank, patience); err != nil {
		return err
	}
	if v := o.groups.Get(group); v != nil {
		mm := v.(*memberMap)
		if err := tx.LockWithin(mm.sem, o.unregMemRef.Mode1(member), o.memRank, patience); err != nil {
			return err
		}
		o.fault("unregister")
		mm.m.Remove(member)
	}
	return nil
}

func (o *Ours) unicast(tx *core.Txn, group, dst core.Value, payload []byte, patience time.Duration) error {
	if err := tx.LockWithin(o.groupsSem, o.uniGRef.Mode1(group), o.groupsRank, patience); err != nil {
		return err
	}
	if v := o.groups.Get(group); v != nil {
		mm := v.(*memberMap)
		if err := tx.LockWithin(mm.sem, o.uniMemRef.Mode1(dst), o.memRank, patience); err != nil {
			return err
		}
		o.fault("unicast")
		if c := mm.m.Get(dst); c != nil {
			c.(*Conn).Send(payload) // I/O inside the section
		}
	}
	return nil
}

func (o *Ours) multicast(tx *core.Txn, group core.Value, payload []byte, patience time.Duration) error {
	if err := tx.LockWithin(o.groupsSem, o.mcGRef.Mode1(group), o.groupsRank, patience); err != nil {
		return err
	}
	if v := o.groups.Get(group); v != nil {
		mm := v.(*memberMap)
		if err := tx.LockWithin(mm.sem, o.mcMemMode, o.memRank, patience); err != nil {
			return err
		}
		o.fault("multicast")
		mm.m.RangeHeld(func(_, c core.Value) bool {
			c.(*Conn).Send(payload) // I/O inside the section
			return true
		})
	}
	return nil
}

// LookupV is Lookup with pre-boxed keys. It is the hybrid-execution
// fast path: both ADT operations are observers (get on the outer map,
// get on the member map), so the section first runs lock-free, observing
// into a core.Snapshot on its stack the two mechanisms it would have
// locked and validating their version counters at the end — it holds
// nothing, so it needs no transaction — and only re-runs under the
// pessimistic prologue (lookup, LookupPessimistic's body) when an
// observation is refused or validation fails. The observed modes are exactly
// the modes the pessimistic path locks — unicast's {get(g)} / {get(dst)}
// — so the conflict predicate is the one the plan's certificate already
// covers. The individual ADT reads are safe without the semantic locks
// because every adt structure is linearizable on its own (internal
// mutex); what validation adds is that the two reads happened inside
// one conflict-free window.
func (o *Ours) LookupV(group, member core.Value) bool {
	if found, ok := o.lookupOptimisticV(group, member); ok {
		return found
	}
	var found bool
	core.Atomically(func(tx *core.Txn) {
		found, _ = o.lookup(tx, group, member, core.Forever)
	})
	return found
}

func (o *Ours) lookupOptimisticV(group, member core.Value) (found, ok bool) {
	var sn core.Snapshot
	if !sn.Observe(o.groupsSem, o.uniGRef.Mode1(group)) {
		return false, false
	}
	if v := o.groups.Get(group); v != nil {
		mm := v.(*memberMap)
		if !sn.Observe(mm.sem, o.uniMemRef.Mode1(member)) {
			return false, false
		}
		found = mm.m.Get(member) != nil
	}
	return found, sn.Validate()
}

// lookup is the pessimistic lookup body, with the patience contract of
// the other section bodies.
func (o *Ours) lookup(tx *core.Txn, group, member core.Value, patience time.Duration) (bool, error) {
	if err := tx.LockWithin(o.groupsSem, o.uniGRef.Mode1(group), o.groupsRank, patience); err != nil {
		return false, err
	}
	if v := o.groups.Get(group); v != nil {
		mm := v.(*memberMap)
		if err := tx.LockWithin(mm.sem, o.uniMemRef.Mode1(member), o.memRank, patience); err != nil {
			return false, err
		}
		return mm.m.Get(member) != nil, nil
	}
	return false, nil
}

// SendReq is one unicast inside a batched prologue: a run of adjacent
// unicast frames pipelined on one server connection.
type SendReq struct {
	Group, Dst core.Value
	Payload    []byte
}

// BatchScratch holds the reusable slices of UnicastBatchV so a steady
// connection batches without allocating. The zero value is ready; one
// scratch belongs to one connection goroutine at a time.
type BatchScratch struct {
	outer []core.BatchLock
	inner []core.BatchLock
	mms   []*memberMap
}

// UnicastBatchV routes a run of unicasts as ONE atomic section whose
// prologue is fused: every outer-map mode is acquired in a single
// LockBatch (one AcquireBatch pass over the groups mechanism, one
// union-mask waiter on conflict), then — the member maps now resolvable
// under the outer locks — every inner-map mode in a second LockBatch,
// then the sends. This is the PR 4 fused-prologue path fed by the
// network: adjacent requests on a connection take the place of adjacent
// lock statements in a synthesized section.
//
// Coarsening k sections into one is always serializable (the batch is a
// legal single transaction over the union of the footprints; unicast
// modes are observers of both maps plus thread-local I/O, so batching
// cannot even widen a conflict), and the two LockBatch calls ascend the
// certificate's rank order — groups before members — exactly like the
// sequential prologues they replace.
func (o *Ours) UnicastBatchV(reqs []SendReq, sc *BatchScratch) {
	if len(reqs) == 1 {
		o.UnicastV(reqs[0].Group, reqs[0].Dst, reqs[0].Payload)
		return
	}
	core.Atomically(func(tx *core.Txn) {
		_ = o.unicastBatch(tx, reqs, sc, core.Forever)
	})
}

// unicastBatch is the batch body, with the patience contract of the
// other section bodies: both prologues wait at most patience per
// instance group, and a stall returns before any send.
func (o *Ours) unicastBatch(tx *core.Txn, reqs []SendReq, sc *BatchScratch, patience time.Duration) error {
	sc.outer = sc.outer[:0]
	for i := range reqs {
		sc.outer = append(sc.outer, core.BatchLock{
			Sem: o.groupsSem, Mode: o.uniGRef.Mode1(reqs[i].Group), Rank: o.groupsRank,
		})
	}
	if err := tx.LockBatchWithin(patience, sc.outer...); err != nil {
		return err
	}
	sc.inner = sc.inner[:0]
	sc.mms = sc.mms[:0]
	for i := range reqs {
		var mm *memberMap
		if v := o.groups.Get(reqs[i].Group); v != nil {
			mm = v.(*memberMap)
		}
		sc.mms = append(sc.mms, mm)
		if mm != nil {
			sc.inner = append(sc.inner, core.BatchLock{
				Sem: mm.sem, Mode: o.uniMemRef.Mode1(reqs[i].Dst), Rank: o.memRank,
			})
		}
	}
	if err := tx.LockBatchWithin(patience, sc.inner...); err != nil {
		return err
	}
	for i := range reqs {
		if mm := sc.mms[i]; mm != nil {
			o.fault("unicast")
			if c := mm.m.Get(reqs[i].Dst); c != nil {
				c.(*Conn).Send(reqs[i].Payload) // I/O inside the section
			}
		}
	}
	return nil
}
