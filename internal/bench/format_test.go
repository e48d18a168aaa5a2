package bench

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := &Table{ID: "x", Title: "demo", Header: []string{"A", "B"}}
	t.AddRow("1", "two,with comma")
	t.AddRow("3", `quote "inside"`)
	t.AddNote("a note")
	return t
}

func TestCSVFormat(t *testing.T) {
	csv := sampleTable().CSV()
	want := []string{
		"A,B\n",
		`1,"two,with comma"`,
		`3,"quote ""inside"""`,
		"# a note",
	}
	for _, w := range want {
		if !strings.Contains(csv, w) {
			t.Errorf("CSV missing %q:\n%s", w, csv)
		}
	}
}

func TestMarkdownFormat(t *testing.T) {
	md := sampleTable().Markdown()
	for _, w := range []string{"### x: demo", "| A | B |", "| --- | --- |", "_a note_"} {
		if !strings.Contains(md, w) {
			t.Errorf("markdown missing %q:\n%s", w, md)
		}
	}
}

func TestFormatDispatch(t *testing.T) {
	tbl := sampleTable()
	for _, f := range []string{"", "text", "csv", "markdown", "md"} {
		if _, err := tbl.Format(f); err != nil {
			t.Errorf("Format(%q): %v", f, err)
		}
	}
	if _, err := tbl.Format("xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestChart(t *testing.T) {
	tbl := &Table{ID: "c", Title: "chart", Header: []string{"Name", "Val"}}
	tbl.AddRow("a", "2.00")
	tbl.AddRow("b", "4.00")
	tbl.AddRow("x", "not-a-number")
	out := tbl.Chart(1)
	if !strings.Contains(out, "a") || !strings.Contains(out, "█") {
		t.Fatalf("chart:\n%s", out)
	}
	// b's bar must be roughly twice a's.
	lines := strings.Split(out, "\n")
	var aBar, bBar int
	for _, l := range lines {
		if strings.HasPrefix(l, "a") {
			aBar = strings.Count(l, "█")
		}
		if strings.HasPrefix(l, "b") {
			bBar = strings.Count(l, "█")
		}
	}
	if bBar != 2*aBar {
		t.Errorf("bars a=%d b=%d", aBar, bBar)
	}
	if got := (&Table{Header: []string{"x"}}).Chart(0); !strings.Contains(got, "no numeric") {
		t.Errorf("empty chart = %q", got)
	}
}

func TestRenderHTML(t *testing.T) {
	var sb strings.Builder
	tbl := &Table{ID: `h<1>`, Title: `html & "demo"`, Header: []string{"Name", `a<b>&"c"`}}
	tbl.AddRow("wi", "1.50")
	tbl.AddRow("or", "excl")
	tbl.AddRow(`<x>&"y"`, "0.75")
	tbl.AddNote(`a <note> & "things"`)
	if err := RenderHTML(&sb, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "</html>",
		"<h2>h&lt;1&gt; — html &amp; &#34;demo&#34;</h2>",
		"<th>a&lt;b&gt;&amp;&#34;c&#34;</th>",
		`<td style="background:white">&lt;x&gt;&amp;&#34;y&#34;</td>`,
		`<p class="note">a &lt;note&gt; &amp; &#34;things&#34;</p>`,
		`<td style="background:white">excl</td>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	for _, raw := range []string{"<1>", `"demo"`, "<b>", "<x>", "<note>"} {
		if strings.Contains(out, raw) {
			t.Errorf("HTML has unescaped %q", raw)
		}
	}
	// Numeric shading scales by the column maximum; excluded cells stay white.
	for _, want := range []string{
		`<td style="background:rgba(66,133,244,0.50)">1.50</td>`,
		`<td style="background:rgba(66,133,244,0.28)">0.75</td>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing shaded cell %q", want)
		}
	}
}
