// Command semlockvet runs the repository's lint suite over the module:
// the per-package analyzers of internal/lint, the whole-program
// analyzers of internal/lint/interproc (guardedby, rankorder), and the
// global lock-order embedding check over every synthesized plan
// (internal/modules/planreg + verify.GlobalOrder).
//
// Usage:
//
//	semlockvet [flags] [packages]
//
// The analyzer list in -help is generated from the registries, so it
// cannot rot. Package patterns default to ./... and are resolved by
// `go list` from the enclosing module root. Exits 1 if any analyzer
// reports a finding, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/interproc"
	"repro/internal/modules/planreg"
)

// jsonDiag is the -json wire format: one object per line, stable field
// names (the CI problem-matcher and artifact tooling key on these).
type jsonDiag struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Witness  []string `json:"witness,omitempty"`
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), "usage: semlockvet [flags] [packages]\n\nper-package analyzers:\n")
	for _, a := range lint.All() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nwhole-program analyzers:\n")
	for _, a := range interproc.All() {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
	flag.PrintDefaults()
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line on stdout instead of text on stderr")
	plans := flag.Bool("plans", true, "cross-check every synthesized plan's certificate against the global lock-order graph")
	flag.Usage = usage
	flag.Parse()

	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, lint.All(), interproc.All())

	if *plans {
		g := planreg.GlobalOrder()
		for _, problem := range g.Check() {
			diags = append(diags, lint.Diagnostic{
				Analyzer: "globalorder",
				Message:  problem,
			})
		}
		if !*jsonOut {
			fmt.Printf("semlockvet: global lock order over synthesized plans: %d classes, %d edges\n",
				g.Classes(), g.Edges())
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			enc.Encode(jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Witness:  d.Witness,
			})
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "semlockvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("semlockvet: %d packages clean\n", len(pkgs))
	}
}
