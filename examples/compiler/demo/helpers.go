// Package demo holds the semlockc-compiled Fig 1 section (demo_semlock.go,
// generated from input.go.txt), its plan, the constructors of instances
// bound to the plan's tables, and Process run under it.
package demo

import (
	"repro/internal/adtspecs"
	"repro/internal/modules/plan"
	"repro/internal/semadt"
)

//go:generate go run repro/cmd/semlockc -in input.go.txt -out demo_semlock.go

var demoPlan = plan.MustBuild(_semlockSections(), adtspecs.All(), nil, plan.Options{})

// SetAlias re-exports the wrapper Set type for test assertions.
type SetAlias = semadt.Set

// NewDemoMap creates the shared Map instance of the example.
func NewDemoMap() *semadt.Map { return semadt.NewMap(demoPlan.Table("Map")) }

// NewDemoQueue creates the shared Queue instance of the example.
func NewDemoQueue() *semadt.Queue { return semadt.NewQueue(demoPlan.Table("Queue")) }

// Process runs the compiled section under the example's plan.
var Process = _semlockBind(demoPlan).Process
