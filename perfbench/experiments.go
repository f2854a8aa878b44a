package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// measuredTables reads the hand-maintained "Measured" tables of
// EXPERIMENTS.md: for each "## Table N" section, the first markdown
// table after its "Measured:" line. The result maps table number →
// benchmark row → absolute cells in column order (the file prints the
// first column absolute and the rest as deltas against it).
func measuredTables(path string) (map[int]map[string][]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[int]map[string][]int64{}
	table, measured := 0, false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "## Table "); ok {
			num, _, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(num)
			if err != nil {
				return nil, fmt.Errorf("%s: bad heading %q", path, line)
			}
			table, measured = n, false
			continue
		}
		if strings.HasPrefix(line, "## ") {
			table = 0
			continue
		}
		if table == 0 {
			continue
		}
		if line == "Measured:" {
			measured = true
			continue
		}
		if !measured || !strings.HasPrefix(line, "|") {
			if measured && out[table] != nil && line != "" {
				measured = false // the table ended
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		name := strings.TrimSpace(cells[0])
		if name == "benchmark" || strings.HasPrefix(name, "-") {
			continue
		}
		row := make([]int64, len(cells)-1)
		for i, c := range cells[1:] {
			v, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: table %d row %s: %v", path, table, name, err)
			}
			if i > 0 {
				v += row[0]
			}
			row[i] = v
		}
		if out[table] == nil {
			out[table] = map[string][]int64{}
		}
		out[table][name] = row
	}
	for n := 2; n <= 5; n++ {
		if len(out[n]) == 0 {
			return nil, fmt.Errorf("%s: no Measured rows for Table %d", path, n)
		}
	}
	return out, nil
}
