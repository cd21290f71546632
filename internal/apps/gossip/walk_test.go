package gossip

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adtspecs"
	"repro/internal/core"
	"repro/internal/modules/plan"
	"repro/internal/resilience"
)

// walkMembers runs f over group g's member map inside a section with
// multicast's prologue — the held walk of the multicast bodies with the
// test's own visitor in place of Conn.Send.
func (o *Ours) walkMembers(g core.Value, f func(member, conn core.Value) bool) {
	core.Atomically(func(tx *core.Txn) {
		tx.Lock(o.groupsSem, o.mcGRef.Mode1(g), o.groupsRank)
		if v := o.groups.Get(g); v != nil {
			mm := v.(*memberMap)
			tx.Lock(mm.sem, o.mcMemMode, o.memRank)
			mm.m.RangeHeld(f)
		}
	})
}

// TestMulticastWalkHammer races multicasts — whose member-map walk takes
// no lock of the map's own — against register/unregister churn on
// m8–m15 and unicasts and lookups on all sixteen, for every policy.
// Every multicast must deliver to each stable member m0–m7 exactly once
// (frame accounting per sink, which a skipped or doubled delivery
// breaks), and on the semantic-locking routers a probe section with
// multicast's prologue checks each single walk: all eight stable members
// once, no churn member twice, every binding intact. Run under -race:
// the walk's soundness is a happens-before claim over the locks' atomics,
// and the detector is what checks it.
func TestMulticastWalkHammer(t *testing.T) {
	const (
		group               = "g"
		members, stable     = 16, 8
		multicasters, other = 2, 2
		rounds              = 2000
	)
	var names [members]string
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	routers := map[string]func() Router{
		"resilient": func() Router {
			return NewResilient(NewOursFused(0, plan.Options{}),
				resilience.New("hammer", resilience.Config{Patience: time.Minute}))
		},
	}
	for _, pol := range []string{"ours", "global", "2pl", "manual"} {
		routers[pol] = func() Router { return New(pol, 0, plan.Options{}) }
	}
	for pol, build := range routers {
		t.Run(pol, func(t *testing.T) {
			r := build()
			var ours *Ours
			switch r := r.(type) {
			case *Ours:
				ours = r
			case *Resilient:
				ours = r.Ours
			}
			var sinks [members]*Conn
			index := make(map[*Conn]int, members)
			for i := range sinks {
				sinks[i] = NewConn(names[i], 0)
				index[sinks[i]] = i
				r.Register(group, names[i], sinks[i])
			}
			payload := []byte("payload")
			stop := make(chan struct{})
			var walkers, rest sync.WaitGroup
			var unicasts [other][stable]int64

			for w := 0; w < other; w++ {
				rest.Add(2)
				go func(w int) { // churn: this goroutine's half of m8–m15
					defer rest.Done()
					mine := names[stable+w*4 : stable+w*4+4]
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						for j := range mine {
							r.Unregister(group, mine[(i+j)%4])
						}
						for j, m := range mine {
							r.Register(group, m, sinks[stable+w*4+j])
						}
					}
				}(w)
				go func(w int) { // point sections on every member
					defer rest.Done()
					for i := w; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						dst := i % members
						r.Unicast(group, names[dst], payload)
						if dst < stable {
							unicasts[w][dst]++
						}
						if ours != nil && !ours.Lookup(group, names[i%stable]) {
							t.Errorf("stable member %s vanished from a lookup", names[i%stable])
							return
						}
					}
				}(w)
			}
			for w := 0; w < multicasters; w++ {
				walkers.Add(1)
				go func() {
					defer walkers.Done()
					for i := 0; i < rounds; i++ {
						r.Multicast(group, payload)
						if ours == nil {
							continue
						}
						var seen [members]int
						ours.walkMembers(group, func(member, conn core.Value) bool {
							c := conn.(*Conn)
							if c.Member != member.(string) {
								t.Errorf("walk yielded %v bound to %s's connection", member, c.Member)
							}
							seen[index[c]]++
							return true
						})
						for i, n := range seen {
							if n > 1 || (i < stable && n != 1) {
								t.Errorf("one walk yielded %s %d times", names[i], n)
								return
							}
						}
					}
				}()
			}
			walkers.Wait()
			close(stop)
			rest.Wait()

			if res, ok := r.(*Resilient); ok && res.Dropped.Load() != 0 {
				t.Fatalf("policy dropped %d operations; the accounting below assumes none", res.Dropped.Load())
			}
			for i := 0; i < stable; i++ {
				want := int64(multicasters * rounds)
				for w := range unicasts {
					want += unicasts[w][i]
				}
				if got := sinks[i].Frames.Load(); got != want {
					t.Errorf("%s received %d frames, want %d (%d multicasts + its unicasts)",
						names[i], got, want, multicasters*rounds)
				}
			}
			if ours != nil {
				for _, s := range ours.Sems() {
					if err := s.CheckQuiesced(); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}

// TestNewOursRequiresExcludingMulticastMode: the router refuses, at
// construction, a plan whose member table does not derive that
// multicast's mode excludes every mutator. The plan comes from a Map
// spec relaxed for the test — values() made to commute with remove — so
// F_c(values, remove) is commute and ExcludesMutators false.
func TestNewOursRequiresExcludingMulticastMode(t *testing.T) {
	specs := adtspecs.All()
	specs["Map"] = adtspecs.Map().Commute("values", "remove", core.Always)
	relaxed := plan.MustBuild(Sections(), specs, ClassOf, plan.Options{})
	if mc := relaxed.Ref(3, "members").Mode(); relaxed.Table("Map$members").ExcludesMutators(mc) {
		t.Fatal("test premise: the relaxed spec must make multicast's mode non-excluding")
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "does not exclude every mutator") {
			t.Fatalf("newOurs on a non-excluding member table: recovered %q, want the construction panic", msg)
		}
	}()
	newOurs(relaxed)
}
