// Command perfbench is the StegFS benchmark. It runs one of three seeded,
// closed-loop, single-client workloads against the public stegfs and stegdb
// APIs, checks every result, and prints its metrics, the last line of its
// output being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated with every layer traced and the metrics are the per-layer
// ones. See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one reported metric and its unit. The lists match
// BENCHMARK.json at the repository root.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"disk_ms_per_op", "ms"},
	{"space_amp", "ratio"},
	{"heap_peak_mib", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"vdisk.reads_per_op", "count"},
	{"vdisk.seeks_per_op", "count"},
	{"vdisk.writes_per_op", "count"},
	{"vdisk.blocks_per_batch", "count"},
	{"vdisk.self_ms_per_op", "ms"},
	{"blockcache.hit_ratio", "ratio"},
	{"blockcache.evictions_per_op", "count"},
	{"blockcache.writebacks_per_op", "count"},
	{"blockcache.flush_stalls_per_op", "count"},
	{"blockcache.background_ms_per_op", "ms"},
	{"alloc.allocs_per_op", "count"},
	{"alloc.frees_per_op", "count"},
	{"stegfs.read_self_ms", "ms"},
	{"stegfs.write_self_ms", "ms"},
	{"stegfs.sync_ms_per_commit", "ms"},
	{"stegfs.readat_per_get", "count"},
	{"stegfs.view_self_ms_per_op", "ms"},
	{"stegdb.self_ms_per_op", "ms"},
	{"stegdb.commit_self_ms", "ms"},
	{"stegdb.wal_bytes_per_commit", "bytes"},
	{"stegdb.home_bytes_per_commit", "bytes"},
	{"stegdb.view_calls_per_commit", "count"},
	{"stegdb.pages_per_kop", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_per_kop", "count"},
	{"setup.format_s", "s"},
	{"setup.populate_s", "s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.slowdown", "ratio"},
	{"e2e.write_p50_ms", "ms"},
	{"e2e.write_p99_ms", "ms"},
	{"e2e.scan_p50_ms", "ms"},
	{"e2e.scan_p99_ms", "ms"},
	{"e2e.commit_p50_ms", "ms"},
	{"e2e.commit_p90_ms", "ms"},
	{"e2e.write_amp", "ratio"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "hidden-read, hidden-churn or stegdb-oltp")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	out := flag.String("out", "", "directory for the span dump of a traced run (none if empty)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, out string) error {
	if name == "" {
		return errors.New("no --workload given")
	}
	s, err := specFor(name, false)
	if err != nil {
		return err
	}
	limit := time.Duration(seconds * float64(time.Second))
	var r result
	defs := endToEnd
	if trace != 0 {
		spanFile := ""
		if out != "" {
			spanFile = filepath.Join(out, name+".spans.tsv")
		}
		r, err = measureTraced(s, seed, limit, spanFile)
		defs = perLayer
	} else {
		r, err = measure(s, seed, limit)
	}
	if err != nil {
		return err
	}
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for _, line := range r.text {
		fmt.Println(line)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}
