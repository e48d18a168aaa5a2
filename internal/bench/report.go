package bench

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"strings"
)

// reportHead opens a self-contained HTML report of experiment tables: no
// external assets, printable, with numeric cells shaded by magnitude
// within each table for quick visual scanning.
const reportHead = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Shogun reproduction report</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; }
h2 { font-size: 1.15rem; margin-top: 2.2rem; border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .8rem 0; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
th { background: #f2f2f2; }
p.note { color: #555; font-style: italic; margin: .2rem 0; }
</style>
</head>
<body>
<h1>Shogun: task scheduling for graph mining accelerators — reproduction report</h1>
<p>Generated by <code>shogunbench -html</code>. Every number is deterministic;
see EXPERIMENTS.md for the paper-vs-measured discussion.</p>
`

// cellShade maps a numeric cell onto a light blue ramp scaled by its
// column's maximum; non-numeric cells stay white.
func cellShade(t *Table, col int, cell string) string {
	if col == 0 {
		return "white"
	}
	v, ok := parseNumeric(cell)
	if !ok {
		return "white"
	}
	maxV := 0.0
	for _, r := range t.Rows {
		if col < len(r) {
			if x, ok := parseNumeric(r[col]); ok && x > maxV {
				maxV = x
			}
		}
	}
	if maxV <= 0 {
		return "white"
	}
	frac := v / maxV
	// 0 → white, 1 → medium blue.
	alpha := 0.05 + 0.45*frac
	return fmt.Sprintf("rgba(66,133,244,%.2f)", alpha)
}

func parseNumeric(cell string) (float64, bool) {
	cell = strings.TrimSuffix(strings.TrimSpace(cell), "%")
	if cell == "" || cell == "excl" {
		return 0, false
	}
	var v float64
	if _, err := fmt.Sscan(cell, &v); err != nil {
		return 0, false
	}
	return v, true
}

// RenderHTML writes a self-contained HTML report of the tables. Every
// table string is escaped with html.EscapeString.
func RenderHTML(w io.Writer, tables []*Table) error {
	esc := html.EscapeString
	bw := bufio.NewWriter(w)
	bw.WriteString(reportHead)
	for _, t := range tables {
		fmt.Fprintf(bw, "<h2>%s — %s</h2>\n<table>\n<tr>", esc(t.ID), esc(t.Title))
		for _, h := range t.Header {
			fmt.Fprintf(bw, "<th>%s</th>", esc(h))
		}
		bw.WriteString("</tr>\n")
		for _, r := range t.Rows {
			bw.WriteString("<tr>")
			for i, c := range r {
				fmt.Fprintf(bw, `<td style="background:%s">%s</td>`, cellShade(t, i, c), esc(c))
			}
			bw.WriteString("</tr>\n")
		}
		bw.WriteString("</table>\n")
		for _, n := range t.Notes {
			fmt.Fprintf(bw, "<p class=\"note\">%s</p>\n", esc(n))
		}
	}
	bw.WriteString("</body>\n</html>\n")
	return bw.Flush()
}
