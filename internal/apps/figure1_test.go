package apps

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestFigure1ShapeInvariants locks the qualitative Figure 1 claims into the
// test suite: the per-application local/global pattern mixes that Section
// 6.2 reports. Thresholds are generous (shapes, not decimals).
func TestFigure1ShapeInvariants(t *testing.T) {
	type bound struct {
		config string
		check  func(t *testing.T, global, local core.PatternMix)
	}
	pct := func(m core.PatternMix) (float64, float64, float64) { return m.Pct() }

	cases := []bound{
		{"LBANN", func(t *testing.T, g, l core.PatternMix) {
			// §6.2.3: locally 100% consecutive, globally largely random.
			lc, _, _ := pct(l)
			_, _, gr := pct(g)
			if lc != 100 {
				t.Errorf("LBANN local consecutive = %.1f%%, want 100%%", lc)
			}
			if gr < 40 {
				t.Errorf("LBANN global random = %.1f%%, want >40%%", gr)
			}
		}},
		{"LAMMPS-POSIX", func(t *testing.T, g, l core.PatternMix) {
			// §6.2.1: all accesses consecutive at both levels via POSIX.
			gc, _, _ := pct(g)
			lc, _, _ := pct(l)
			if gc != 100 || lc != 100 {
				t.Errorf("LAMMPS-POSIX mixes = %.1f/%.1f%%, want 100/100", gc, lc)
			}
		}},
		{"LAMMPS-HDF5", func(t *testing.T, g, l core.PatternMix) {
			// §6.2.1: the library introduces a random fraction.
			_, _, gr := pct(g)
			if gr == 0 {
				t.Error("LAMMPS-HDF5 should show library-metadata randomness")
			}
		}},
		{"FLASH-nofbs", func(t *testing.T, g, l core.PatternMix) {
			// §6.2.2: ~50% random globally; single rank mostly monotonic.
			_, _, gr := pct(g)
			if gr < 30 {
				t.Errorf("FLASH-nofbs global random = %.1f%%, want >30%%", gr)
			}
			_, lm, _ := pct(l)
			if lm < 60 {
				t.Errorf("FLASH-nofbs local monotonic = %.1f%%, want >60%%", lm)
			}
		}},
		{"FLASH-fbs", func(t *testing.T, g, l core.PatternMix) {
			// Collective I/O: much less random than independent at the
			// local level.
			_, _, lr := pct(l)
			if lr > 20 {
				t.Errorf("FLASH-fbs local random = %.1f%%, want <20%%", lr)
			}
		}},
		{"GTC", func(t *testing.T, g, l core.PatternMix) {
			gc, _, _ := pct(g)
			if gc != 100 {
				t.Errorf("GTC global consecutive = %.1f%%, want 100%%", gc)
			}
		}},
		{"NWChem", func(t *testing.T, g, l core.PatternMix) {
			// File-per-process: global ≈ local ≈ consecutive (§6.2).
			gc, _, _ := pct(g)
			if gc < 95 {
				t.Errorf("NWChem global consecutive = %.1f%%, want >95%%", gc)
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.config, func(t *testing.T) {
			t.Parallel()
			res := execute(t, c.config, Options{Ranks: 32, PPN: 4})
			fas := extracted(t, res.Trace)
			global, err := core.GlobalPatternParallelCtx(context.Background(), fas, 1)
			if err != nil {
				t.Fatal(err)
			}
			local, err := core.LocalPatternParallelCtx(context.Background(), fas, 1)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, global, local)
		})
	}
}
