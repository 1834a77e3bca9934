package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Figure2SVGOf renders the offset-over-time scatter of one file's writes
// among pre-extracted accesses as a standalone SVG (the visual form of the
// paper's Figure 2 panels), with one color per rank and marker size scaled
// by access size. Pure stdlib — the SVG is assembled textually.
func Figure2SVGOf(fas []*core.FileAccesses, path, title string) string {
	type pt struct {
		t    uint64
		rank int32
		off  int64
		n    int64
	}
	var pts []pt
	var tMax uint64
	var offMax int64
	ranks := make(map[int32]bool)
	for _, fa := range fas {
		if fa.Path != path {
			continue
		}
		for _, ivl := range fa.Intervals {
			if !ivl.Write {
				continue
			}
			pts = append(pts, pt{ivl.T, ivl.Rank, ivl.Os, ivl.Oe - ivl.Os})
			ranks[ivl.Rank] = true
			if ivl.T > tMax {
				tMax = ivl.T
			}
			if ivl.Oe > offMax {
				offMax = ivl.Oe
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })

	const (
		w, h         = 720, 420
		padL, padR   = 70, 20
		padT, padB   = 40, 50
		plotW, plotH = w - padL - padR, h - padT - padB
	)
	if tMax == 0 {
		tMax = 1
	}
	if offMax == 0 {
		offMax = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15">%s</text>`, padL, xmlEscape(title))
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, padL, padT, padL, padT+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`, padL, padT+plotH, padL+plotW, padT+plotH)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">time (us)</text>`,
		padL+plotW/2, h-12)
	fmt.Fprintf(&b, `<text x="14" y="%d" font-family="sans-serif" font-size="11" transform="rotate(-90 14 %d)" text-anchor="middle">file offset (KiB)</text>`,
		padT+plotH/2, padT+plotH/2)
	// Axis ticks (4 per axis).
	for i := 0; i <= 4; i++ {
		tx := padL + plotW*i/4
		tv := float64(tMax) * float64(i) / 4 / 1000
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%.0f</text>`,
			tx, padT+plotH+16, tv)
		oy := padT + plotH - plotH*i/4
		ov := float64(offMax) * float64(i) / 4 / 1024
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">%.1f</text>`,
			padL-6, oy+4, ov)
	}
	// Points.
	for _, p := range pts {
		x := float64(padL) + float64(plotW)*float64(p.t)/float64(tMax)
		y := float64(padT+plotH) - float64(plotH)*float64(p.off)/float64(offMax)
		r := 1.5
		if p.n >= 1024 {
			r = 3
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.7"/>`,
			x, y, r, rankColor(p.rank))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="10">%d writes, %d ranks</text>`,
		padL, padT-6, len(pts), len(ranks))
	b.WriteString(`</svg>`)
	return b.String()
}

func rankColor(rank int32) string {
	// Deterministic qualitative palette via golden-angle hue stepping.
	hue := (int(rank) * 137) % 360
	return fmt.Sprintf("hsl(%d,70%%,45%%)", hue)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
