// Markdown rendering of committed benchmark artifacts, for splicing into
// EXPERIMENTS.md (`sr3bench matrix-report`). The markdown table is each
// report's one rendering: the terminal gets the same table, aligned.
package bench

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Markdown renders the fault-recovery matrix as a GitHub-flavored table.
func (r *MatrixReport) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| scenario | mechanism | load | tuples | detect | recover | lag p99 | lag max | exactly-once | dup | miss | notes |\n")
	b.WriteString("|---|---|---|---:|---:|---:|---:|---:|:---:|---:|---:|---|\n")
	for _, c := range r.Cells {
		note := c.Notes
		if c.Error != "" {
			note = "ERR " + c.Error
		}
		exact := "✗"
		if c.ExactlyOnce {
			exact = "✓"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %.1f ms | %.1f ms | %.1f ms | %.1f ms | %s | %d | %d | %s |\n",
			c.Scenario, c.Mechanism, c.Load, c.Tuples, c.DetectMs, c.RecoverMs,
			c.LagP99Ms, c.LagMaxMs, exact, c.Duplicates, c.Missing, note)
	}
	b.WriteString("\n*detect = fault→verdict (0 when manually triggered); exactly-once = no loss + state byte-exact; dup = replay re-deliveries absorbed by the dedupe sink.*\n")
	return b.String()
}

// Markdown renders the overload sweep as a GitHub-flavored table.
func (r *OverloadReport) Markdown() string {
	var b strings.Builder
	b.WriteString("| scenario | load | offered | admitted | shed | shed % | queue hi/cap | recover | drain | exactly-once (admitted) | retry rounds | suppressed | notes |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|:---:|---:|---:|---|\n")
	for _, c := range r.Cells {
		note := c.Notes
		if c.Error != "" {
			note = "ERR " + c.Error
		}
		exact := "—"
		if c.Scenario != OverloadRetryStorm {
			exact = "✗"
			if c.ExactlyOnceAdmitted {
				exact = "✓"
			}
		}
		load := c.Load
		if c.Scenario == OverloadRetryStorm {
			if c.Budgeted {
				load = "budgeted"
			} else {
				load = "unbudgeted"
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %.1f%% | %d/%d | %.1f ms | %.1f ms | %s | %d | %d | %s |\n",
			c.Scenario, load, c.Offered, c.Admitted, c.Shed, 100*c.ShedFraction,
			c.QueueHighWater, c.QueueCap, c.RecoverMs, c.LagDrainMs, exact,
			c.RetryRounds, c.RetrySuppressed, note)
	}
	b.WriteString("\n*offered = admitted + shed holds exactly per cell; queue hi never exceeds cap; exactly-once covers admitted tuples only (shed tuples are accounted, not delivered).*\n")
	return b.String()
}

// SpliceMarked replaces the region between begin/end marker lines in doc
// with body (markers kept). When the markers are absent they are
// appended, so the first splice bootstraps the section.
func SpliceMarked(doc, begin, end, body string) string {
	bi := strings.Index(doc, begin)
	ei := strings.Index(doc, end)
	block := begin + "\n" + body + end
	if bi < 0 || ei < 0 || ei < bi {
		if !strings.HasSuffix(doc, "\n") && doc != "" {
			doc += "\n"
		}
		return doc + "\n" + block + "\n"
	}
	return doc[:bi] + block + doc[ei+len(end):]
}

// alignMarkdown re-renders a markdown table for a terminal: cells padded
// to their column's width, the |---| rule dropped, other lines kept.
func alignMarkdown(md string) string {
	var rows [][]string
	var width []int
	lines := strings.Split(md, "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|-") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
			if i == len(width) {
				width = append(width, 0)
			}
			width[i] = max(width[i], utf8.RuneCountInString(cells[i]))
		}
		rows = append(rows, cells)
	}
	var b strings.Builder
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "|-"):
		case strings.HasPrefix(line, "|"):
			var row strings.Builder
			for i, c := range rows[0] {
				fmt.Fprintf(&row, "%-*s  ", width[i], c)
			}
			b.WriteString(strings.TrimRight(row.String(), " ") + "\n")
			rows = rows[1:]
		default:
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
