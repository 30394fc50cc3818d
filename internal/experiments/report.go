package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// WriteCSV emits rows as CSV with a header.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"figure", "series", "x",
		"m_seconds", "s_seconds", "f_seconds",
		"m_mults", "s_mults", "f_mults",
		"m_reads", "s_reads", "f_reads", "m_writes",
		"speedup_s_over_f", "speedup_m_over_f",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Figure, r.Series, strconv.FormatFloat(r.X, 'g', -1, 64)}
		for _, d := range r.Time {
			rec = append(rec, strconv.FormatFloat(d.Seconds(), 'f', 4, 64))
		}
		for _, n := range slices.Concat(r.Mul[:], r.Reads[:], []int64{r.MWrites}) {
			rec = append(rec, strconv.FormatInt(n, 10))
		}
		rec = append(rec, fmt.Sprintf("%.3f", r.SpeedupSF), fmt.Sprintf("%.3f", r.SpeedupMF))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown renders rows as a GitHub-flavoured markdown table, grouped
// the way the paper's figures present them.
func WriteMarkdown(w io.Writer, title string, rows []Row) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", title); err != nil {
		return err
	}
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "_no rows_")
		return err
	}
	fmt.Fprintln(w, "| series | x | M time | S time | F time | S/F | M/F | F mult-savings vs S |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|")
	for _, r := range rows {
		saving := "-"
		if sm := r.Mul[1]; sm > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*float64(sm-r.Mul[2])/float64(sm))
		}
		fmt.Fprintf(w, "| %s | %g | %s | %s | %s | %.2f× | %.2f× | %s |\n",
			r.Series, r.X,
			r.Time[0].Round(time.Millisecond), r.Time[1].Round(time.Millisecond), r.Time[2].Round(time.Millisecond),
			r.SpeedupSF, r.SpeedupMF, saving)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteAllMarkdown renders a full result set in paper order.
func WriteAllMarkdown(w io.Writer, results map[string][]Row) error {
	for _, name := range Experiments() {
		if rows, ok := results[name]; ok {
			if err := WriteMarkdown(w, name, rows); err != nil {
				return err
			}
		}
	}
	return nil
}
