// Package analysis regenerates every evaluation artifact of the paper —
// Figures 1–5, Examples 1–6, and the bound tables behind Theorems 1–7,
// Lemmas 1–2 and Corollaries 1–2 — as machine-checked tables. Each
// Run* function corresponds to one experiment id of cmd/benchtab's -exp
// list, which surfaces it.
package analysis

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment id, e.g. "EXP-THM5"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string // free-form commentary below the table
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case bool:
			if v {
				row[i] = "yes"
			} else {
				row[i] = "NO"
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a commentary line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	b.WriteByte('|')
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteByte('|')
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}

// TSV renders the table as tab-separated values (headers first).
func (t *Table) TSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, "\t"))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// AllOK reports whether every cell in the named column reads "yes"
// (used by tests to assert inequality columns hold everywhere).
func (t *Table) AllOK(column string) bool {
	idx := -1
	for i, h := range t.Headers {
		if h == column {
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	for _, row := range t.Rows {
		if row[idx] != "yes" {
			return false
		}
	}
	return len(t.Rows) > 0
}
