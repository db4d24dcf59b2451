package runner

import (
	"strings"
	"testing"
)

// mustTable runs one experiment and fails the test on error.
func mustTable(t testing.TB, exp func(Params) (*Table, error), p Params) *Table {
	t.Helper()
	tbl, err := exp(p)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// num reads the numeric cell of row under column head.
func num(t testing.TB, tbl *Table, row int, head string) float64 {
	t.Helper()
	c := tbl.Col(head)
	if c < 0 {
		t.Fatalf("no column %q", head)
	}
	switch v := tbl.Rows[row][c].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	}
	t.Fatalf("column %q row %d is %T, not a number", head, row, tbl.Rows[row][c])
	return 0
}

// rowsBy indexes rows by their string cells under heads, joined by "/".
func rowsBy(t testing.TB, tbl *Table, heads ...string) map[string]int {
	t.Helper()
	idx := make(map[string]int, len(tbl.Rows))
	for i, row := range tbl.Rows {
		var key []string
		for _, h := range heads {
			c := tbl.Col(h)
			if c < 0 {
				t.Fatalf("no column %q", h)
			}
			key = append(key, row[c].(string))
		}
		idx[strings.Join(key, "/")] = i
	}
	return idx
}

// renders fails unless rendering one row against cols shows every want.
func renders(t *testing.T, cols []Column, row []any, want ...string) {
	t.Helper()
	out := (&Table{Cols: cols, Rows: [][]any{row}}).Render()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("rendering lacks %q:\n%s", w, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Cols: []Column{{"name", "%-6s"}, {"n", "%4d"}, {"x", "%7.2f"}, {"share", "%5.0f%%"}},
		Rows: [][]any{{"a", 3, 1.5, 20.0}, {"bb", 12, 10.0, 100.0}},
		Note: "(note)\n",
	}
	want := "name      n       x  share\n" +
		"a         3    1.50    20%\n" +
		"bb       12   10.00   100%\n" +
		"(note)\n"
	if got := tbl.Render(); got != want {
		t.Fatalf("render:\n%q\nwant\n%q", got, want)
	}
	if tbl.Col("x") != 2 || tbl.Col("missing") != -1 {
		t.Fatal("Col lookup")
	}
	// A table with no columns is only its note.
	if got := (&Table{Note: "text\n"}).Render(); got != "text\n" {
		t.Fatalf("note-only render %q", got)
	}
}
