package runner

import (
	"fmt"
	"strings"
)

// Column declares one column of a Table: its header and the printf verb
// of its cells, e.g. "%9.3f" or "%-14s". The header is printed at the
// width and alignment of the verb, widened by any literal the verb
// appends (so "%14.0f%%" heads a 15-wide column).
type Column struct {
	Head string
	Fmt  string
}

// Table is one artifact of the evaluation: declared columns, one row of
// raw cell values per arm (or group of arms), and a footer note. Cells
// keep their types — float64, int, int64, string — so a caller can read
// them back as well as print them.
type Table struct {
	Cols []Column
	Rows [][]any
	// Note is printed verbatim after the rows. A table with no columns is
	// only its note: the text reports of Tables I-III and Figs. 1-5, which
	// their own packages render.
	Note string
}

// Render prints the header, then every row, each cell in its column's
// verb and the cells separated by one space, then the note.
func (t *Table) Render() string {
	var b strings.Builder
	if len(t.Cols) > 0 {
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, c.headFmt(), c.Head)
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			for i, c := range t.Cols {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, c.Fmt, row[i])
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString(t.Note)
	return b.String()
}

// Col returns the index of the column headed head, or -1.
func (t *Table) Col(head string) int {
	for i, c := range t.Cols {
		if c.Head == head {
			return i
		}
	}
	return -1
}

// headFmt derives the header verb from the cell verb: the same flag and
// width, plus the printed length of whatever literal follows the verb.
func (c Column) headFmt() string {
	f := strings.TrimPrefix(c.Fmt, "%")
	left := strings.HasPrefix(f, "-")
	f = strings.TrimPrefix(f, "-")
	width := 0
	for len(f) > 0 && f[0] >= '0' && f[0] <= '9' {
		width = width*10 + int(f[0]-'0')
		f = f[1:]
	}
	if verb := strings.IndexFunc(f, func(r rune) bool { return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' }); verb >= 0 {
		width += len(strings.ReplaceAll(f[verb+1:], "%%", "%"))
	}
	if left {
		return fmt.Sprintf("%%-%ds", width)
	}
	return fmt.Sprintf("%%%ds", width)
}
