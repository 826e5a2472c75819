package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// verdict is the comparison of one metric on one workload between a
// base and a change result set.
type verdict struct {
	Base, Change     [3]float64 // quartiles: q1, median, q3
	Pairs, Won, Lost int
	Spread           float64 // larger interquartile spread of the two sides, as a share of its median
	Verdict          string  // better | worse | same | unresolved | info
}

// judge applies the comparison rules to one metric. Runs are paired in
// order (run i of base with run i of change, as alternating runs
// produce them); ties win for neither side.
//
//   - unresolved: either side's interquartile spread exceeds the bound,
//     unless every change run beats every base run (then better);
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - better: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the base's interquartile distance;
//   - same: otherwise.
//
// A metric without a bound (bound <= 0) is reported as info.
func judge(base, change []float64, better string, bound float64) verdict {
	v := verdict{}
	v.Base[0], v.Base[1], v.Base[2] = quartiles(base)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(change)
	improves := func(b, c float64) bool {
		if better == "higher" {
			return c > b
		}
		return c < b
	}
	v.Pairs = min(len(base), len(change))
	for i := 0; i < v.Pairs; i++ {
		switch {
		case improves(base[i], change[i]):
			v.Won++
		case improves(change[i], base[i]):
			v.Lost++
		}
	}
	v.Spread = math.Max(spread(base), spread(change))
	if bound <= 0 {
		v.Verdict = "info"
		return v
	}
	allBetter := len(base) > 0 && len(change) > 0
	for _, b := range base {
		for _, c := range change {
			allBetter = allBetter && improves(b, c)
		}
	}
	worsening := (v.Change[1] - v.Base[1]) / math.Abs(v.Base[1])
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case v.Spread > bound && allBetter:
		v.Verdict = "better"
	case v.Spread > bound:
		v.Verdict = "unresolved"
	case worsening > bound:
		v.Verdict = "worse"
	case float64(v.Won) >= 0.9*float64(v.Pairs) && v.Pairs > 0 &&
		math.Abs(v.Change[1]-v.Base[1]) > v.Base[2]-v.Base[0]:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

// readRecords collects the stamped result records from a file of
// benchmark output (any other lines are ignored), by workload then
// metric, in file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"record":`) {
			continue
		}
		var rec struct {
			Record record `json:"record"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		byMetric := out[rec.Record.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[rec.Record.Workload] = byMetric
		}
		for name, m := range rec.Record.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare compares two result sets metric by metric and workload by
// workload. It exits 1 when any end-to-end metric is worse.
func runCompare(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] BASE CHANGE")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *specPath, err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	var workloadNames []string
	for w := range base {
		if _, ok := change[w]; ok {
			workloadNames = append(workloadNames, w)
		}
	}
	sort.Strings(workloadNames)
	worse := false
	fmt.Fprintf(stdout, "%-14s %-34s %-32s %-32s %-30s %-8s %-7s %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio change/base", "won", "spread", "verdict")
	for _, w := range workloadNames {
		for _, m := range metrics {
			b, c := base[w][m.Name], change[w][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := judge(b, c, m.Better, m.Bound)
			worse = worse || v.Verdict == "worse"
			fmt.Fprintf(stdout, "%-14s %-34s %-32s %-32s %-30s %-8s %-7s %s\n", w, m.Name+" ("+m.Unit+")",
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.Base[1], v.Base[0], v.Base[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.Change[1], v.Change[0], v.Change[2]),
				fmt.Sprintf("%.3f (base %.4g %s)", v.Change[1]/v.Base[1], v.Base[1], m.Unit),
				fmt.Sprintf("%d/%d", v.Won, v.Pairs), fmt.Sprintf("%.3f", v.Spread), verdictText(v, m))
		}
	}
	if worse {
		return 1
	}
	return 0
}

func verdictText(v verdict, m specMetric) string {
	if v.Verdict == "info" {
		return "info (no bound)"
	}
	return fmt.Sprintf("%s (bound %.2f)", v.Verdict, m.Bound)
}
