#!/usr/bin/env bash
# Fails when a key that a read section only reads starts escaping again:
# the parameters named below must be reported "does not escape" by
# `go build -gcflags=-m`. The apps' alloc pins (TestStringFormAllocs,
# TestPointOpAllocs) catch the effect; this names the line that caused it.
# Likewise the closures handed to the held walk (HashMap.RangeHeld) must
# stay on the multicast sections' stacks, and the core.Snapshot of a
# transaction-free optimistic read on its reader's.
set -u
out="$(go build -gcflags=-m ./internal/core ./internal/adt ./internal/apps/gossip ./internal/apps/rangestore ./internal/modules/cia 2>&1)"
fail=0
check() { # file, start of the function's declaration, parameter[, its verdict if not "does not escape"]
	local line want="${4:-$3 does not escape}"
	line="$(grep -nF "$2" "$1" | head -1 | cut -d: -f1)"
	if [ -z "$line" ]; then
		echo "escape-check: no '$2' in $1"
		fail=1
	elif ! grep -q "^$1:$line:[0-9]*: $want\$" <<<"$out"; then
		echo "escape-check: $3 of '$2' ($1:$line) is not reported as '$want':"
		grep "^$1:$line:" <<<"$out"
		fail=1
	fi
}
check internal/core/phi.go 'func hashValue(' v
check internal/core/modecache.go 'func (r SetRef) Mode1(' v
check internal/core/modecache.go 'func (r SetRef) Mode2(' a
check internal/core/modecache.go 'func (r SetRef) Mode2(' b
check internal/adt/hashmap.go 'func (h *HashMap) Get(' k
check internal/adt/hashmap.go 'func (h *HashMap) ContainsKey(' k
check internal/adt/hashmap.go 'func (h *HashMap) Remove(' k
# striped.eachHeld's f: the compiler prints no parameter verdict for a
# generic method's shape instantiations, so the verdict that covers it is
# the one on the wrapper it is inlined into — f would leak there if
# eachHeld kept it.
check internal/adt/hashmap.go 'func (h *HashMap) RangeHeld(' f
# A read declares its Snapshot as a local and hands its address to both
# methods: either receiver leaking would move every `var sn` to the heap.
# Observe's verdict is "content": the 9th observation appends to the
# overflow slice, which copies entries the receiver points at — not the
# receiver — to the heap. The `moved to heap: sn` check below is the one
# that says where a reader's snapshot lives.
check internal/core/snapshot.go 'func (sn *Snapshot) Observe(' sn 'leaking param content: sn'
check internal/core/snapshot.go 'func (sn *Snapshot) Validate(' sn
# The section semlockc compiled for cia: the key boxed for its mode
# selection stays on the stack, and so does the section's closure.
check internal/modules/cia/cia_semlock.go '.Mode1(semadt.ID(key))' key
check internal/modules/cia/cia_semlock.go 'core.Atomically(func(' 'func literal'
for f in internal/apps/rangestore/rangestore.go internal/apps/gossip/boxed.go; do
	if ! grep -q 'var sn core.Snapshot' "$f"; then
		echo "escape-check: $f declares no 'var sn core.Snapshot'; the transaction-free reads moved"
		fail=1
	fi
	if grep "^$f:[0-9]*:[0-9]*: moved to heap: sn\$" <<<"$out"; then
		echo "escape-check: a core.Snapshot in $f is heap-allocated"
		fail=1
	fi
done
check_walks() { # file, number of RangeHeld call sites it must hold
	local lines n=0 line
	lines="$(grep -nF '.RangeHeld(func(' "$1" | cut -d: -f1)"
	for line in $lines; do
		n=$((n + 1))
		if ! grep -q "^$1:$line:[0-9]*: func literal does not escape" <<<"$out"; then
			echo "escape-check: the RangeHeld closure at $1:$line is not reported as 'does not escape':"
			grep "^$1:$line:" <<<"$out"
			fail=1
		fi
	done
	if [ "$n" -ne "$2" ]; then
		echo "escape-check: $1 holds $n RangeHeld call sites, expected $2"
		fail=1
	fi
}
check_walks internal/apps/gossip/boxed.go 1  # multicast, the body of MulticastV and Resilient.MulticastErrV
check_walks internal/apps/gossip/gossip.go 3 # the three baselines (global, 2pl, manual)
exit $fail
