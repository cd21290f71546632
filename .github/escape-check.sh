#!/usr/bin/env bash
# Fails when a key that a read section only reads starts escaping again:
# the parameters named below must be reported "does not escape" by
# `go build -gcflags=-m`. The apps' alloc pins (TestStringFormAllocs,
# TestPointOpAllocs) catch the effect; this names the line that caused it.
set -u
out="$(go build -gcflags=-m ./internal/core ./internal/adt 2>&1)"
fail=0
check() { # file, start of the function's declaration, parameter
	local line
	line="$(grep -nF "$2" "$1" | head -1 | cut -d: -f1)"
	if [ -z "$line" ]; then
		echo "escape-check: no '$2' in $1"
		fail=1
	elif ! grep -q "^$1:$line:[0-9]*: $3 does not escape" <<<"$out"; then
		echo "escape-check: $3 of '$2' ($1:$line) is not reported as 'does not escape':"
		grep "^$1:$line:" <<<"$out"
		fail=1
	fi
}
check internal/core/phi.go 'func hashValue(' v
check internal/core/modecache.go 'func (r SetRef) Mode1(' v
check internal/core/modecache.go 'func (r SetRef) Mode2(' a
check internal/core/modecache.go 'func (r SetRef) Mode2(' b
check internal/core/modecache.go 'func (c *ModeCache) Mode1(' v
check internal/adt/hashmap.go 'func (h *HashMap) Get(' k
check internal/adt/hashmap.go 'func (h *HashMap) ContainsKey(' k
check internal/adt/hashmap.go 'func (h *HashMap) Remove(' k
exit $fail
