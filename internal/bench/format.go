package bench

import (
	"fmt"
	"strings"
)

// CSV renders the table as RFC-4180-ish CSV (notes become trailing
// comment lines prefixed with '#').
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	row := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" " + strings.ReplaceAll(c, "|", "\\|") + " |")
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	return b.String()
}

// Format renders the table in the named format: "text" (default),
// "csv" or "markdown".
func (t *Table) Format(format string) (string, error) {
	switch format {
	case "", "text":
		return t.String(), nil
	case "csv":
		return t.CSV(), nil
	case "markdown", "md":
		return t.Markdown(), nil
	default:
		return "", fmt.Errorf("bench: unknown format %q (text|csv|markdown)", format)
	}
}

// Chart renders column col (1-based; 0 picks the last column) of every
// row as a horizontal ASCII bar chart, labeled by the first column —
// the terminal rendition of the paper's bar figures. Non-numeric cells
// are skipped.
func (t *Table) Chart(col int) string {
	if col <= 0 || col >= len(t.Header) {
		col = len(t.Header) - 1
	}
	type bar struct {
		label string
		value float64
	}
	var bars []bar
	maxV := 0.0
	for _, r := range t.Rows {
		if col >= len(r) {
			continue
		}
		var v float64
		cell := strings.TrimSuffix(r[col], "%")
		if _, err := fmt.Sscan(cell, &v); err != nil {
			continue
		}
		bars = append(bars, bar{r[0], v})
		if v > maxV {
			maxV = v
		}
	}
	if len(bars) == 0 || maxV <= 0 {
		return "(no numeric data in column)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (column %q)\n", t.ID, t.Title, t.Header[col])
	const width = 50
	for _, bar := range bars {
		n := int(bar.value / maxV * width)
		if n < 1 && bar.value > 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-10s %8.2f |%s\n", bar.label, bar.value, strings.Repeat("█", n))
	}
	return b.String()
}
