// Quickstart: trace one HPC application on the simulated I/O stack and ask
// the paper's question — what is the weakest file-system consistency model
// this application can run on?
package main

import (
	"context"
	"fmt"
	"log"

	semfs "repro"
)

func main() {
	// Run the NWChem emulator at the paper's small scale: 64 ranks over 8
	// nodes, writing per-rank scratch files and a rank-0 trajectory.
	res, err := semfs.Run("NWChem", semfs.RunOptions{Ranks: 64, PPN: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced NWChem: %d ranks, %d I/O records\n\n",
		res.Trace.Meta.Ranks, res.Trace.NumRecords())

	// Run the full analysis: offset reconstruction, overlap detection,
	// conflict detection under commit and session semantics, pattern
	// classification and the metadata census.
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("High-level access patterns (Table 3):")
	for _, p := range an.Patterns {
		fmt.Printf("  %-20s %d file(s)\n", p.Key(), len(p.Files))
	}

	fmt.Println("\nConflicts under session semantics (Table 4):")
	sig := an.Verdict.Session
	fmt.Printf("  WAW same-process: %v   WAW cross-process: %v\n", sig.WAWSame, sig.WAWDiff)
	fmt.Printf("  RAW same-process: %v   RAW cross-process: %v\n", sig.RAWSame, sig.RAWDiff)
	for path, cs := range an.SessionConflicts {
		fmt.Printf("  %s: %d conflicting pairs, e.g. %v\n", path, len(cs), cs[0])
	}

	fmt.Printf("\nVerdict: NWChem runs correctly on any PFS providing %q semantics\n",
		an.Verdict.Weakest)
	if an.Verdict.NeedsPerProcessOrdering {
		fmt.Println("         provided the PFS orders same-process accesses (all but BurstFS do).")
	}
}
