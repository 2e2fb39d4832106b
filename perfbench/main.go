// Command perfbench is the repository's end-to-end benchmark. One run drives
// one workload for a fixed time budget, checks the program's outputs, and
// prints as its last line a JSON object with the workload's end-to-end
// metrics (-trace 0) or its per-layer metrics (-trace 1).
//
//	bash perfbench/run.sh --workload node-full --seed 1 --seconds 10 --trace 0
//
// Every input (datasets, model weights, node popularity, arrival schedules)
// is derived from -seed; the program under test only sees the generated
// inputs. See README.md for the workloads and what each metric means.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"torchgt"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"lat_p50_ms", "ms"},
	{"hi_lat_p50_ms", "ms"},
}

// perLayer lists the metrics a -trace 1 run reports. A metric that does not
// apply to the workload reads 0.
var perLayer = []metricDef{
	{"train.step_s", "s"},
	{"train.dense_step_s", "s"},
	{"train.sparse_step_s", "s"},
	{"train.eval_s", "s"},
	{"train.unattributed_s", "s"},
	{"train.preprocess_s", "s"},
	{"model.fwd_s", "s"},
	{"model.bwd_s", "s"},
	{"model.ws_hit_frac", "frac"},
	{"model.alloc_mb_per_step", "MB"},
	{"attention.dense.fwd_s", "s"},
	{"attention.dense.bwd_s", "s"},
	{"attention.clustersparse.fwd_s", "s"},
	{"attention.clustersparse.bwd_s", "s"},
	{"attention.sparse.fwd_s", "s"},
	{"attention.sparse.bwd_s", "s"},
	{"attention.pairs_per_step", "count"},
	{"nn.proj_s", "s"},
	{"nn.ffn_s", "s"},
	{"nn.norm_s", "s"},
	{"nn.loss_s", "s"},
	{"nn.adam_s", "s"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"dist.bytes_per_step", "bytes"},
	{"dist.alltoall_s", "s"},
	{"dist.allreduce_s", "s"},
	{"dist.rank_skew_s", "s"},
	{"dist.rendezvous_s", "s"},
	{"sample.sample_s", "s"},
	{"sample.stall_s", "s"},
	{"sample.ctx_rows", "rows"},
	{"shard.read_s", "s"},
	{"shard.hit_frac", "frac"},
	{"shard.bytes_read_mb", "MB"},
	{"shard.write_s", "s"},
	{"data.open_s", "s"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.infer_ms_p50", "ms"},
	{"serve.infer_ms_p99", "ms"},
	{"serve.http_ms_p50", "ms"},
	{"serve.egocache_hit_frac", "frac"},
	{"serve.avg_batch", "count"},
	{"serve.flush_full_frac", "frac"},
	{"serve.publish_s", "s"},
	{"serve.swap_s", "s"},
	{"serve.metrics_scrape_ms", "ms"},
	{"serve.shed_frac", "frac"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_count", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_samples_per_s", "1/s"},
	{"trace.overhead_lat_p50_ms", "ms"},
}

// extraUnits gives the units of the figures a run prints as '#' lines but
// keeps out of its result line.
var extraUnits = map[string]string{
	"error_frac":    "frac",
	"final_loss":    "nats",
	"lat_p90_ms":    "ms",
	"hi_lat_p90_ms": "ms",
	"setup_s":       "s", // a -trace 1 run's set-up time
}

// runConfig is what one invocation was asked to do.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // scratch space inside the checkout, removed at exit
}

// outcome is what a workload hands back: the metrics of the requested kind,
// how many operations it attempted and how many failed, and the output
// checks that did not hold.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	mismatch  []string
	backend   string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"node-full":    runNodeFull,
	"node-sp2-tcp": runNodeSP2,
	"ego-ooc":      runEgo,
	"serve-open":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: node-full, node-sp2-tcp, ego-ooc or serve-open")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	activate := flag.String("activate", "", "only activate the named backend and print the seconds it took (serve-open's set-up runs this in child processes)")
	flag.Parse()
	if *activate != "" {
		t := time.Now()
		if _, err := torchgt.SetBackend(*activate); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(time.Since(t).Seconds())
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run drives one workload from the root of the checkout, the working
// directory run.sh leaves it in.
func run(name string, seed int64, seconds int, trace bool) error {
	const root = "."
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	o, err := fn(runConfig{seed: seed, seconds: float64(seconds), trace: trace, workDir: work})
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	stamp := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "backend": o.backend,
		"commit": gitCommit(root), "tree_sha256": treeDigest(root),
	}
	sb, _ := json.Marshal(stamp)
	fmt.Printf("# env %s\n", sb)
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v := o.metrics[d.name]
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("# %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	// Figures printed for readers but kept out of the result line: the
	// final loss (fixed per seed, but it varies too much between seeds to
	// bound), the error fraction (0 on a healthy run) and the p90 figures
	// lat_p90_ms and hi_lat_p90_ms (their run-to-run spread reaches the
	// largest bound a metric may have; see README.md).
	extra := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		if _, listed := metrics[k]; !listed {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("# %-32s %14.6g %s\n", k, o.metrics[k], extraUnits[k])
	}
	for _, m := range o.mismatch {
		fmt.Printf("# CHECK FAILED: %s\n", m)
	}
	correct := len(o.mismatch) == 0
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if !correct {
		return fmt.Errorf("%d output check(s) failed", len(o.mismatch))
	}
	return nil
}

// gitCommit reads the checked-out commit from root/.git without running git;
// it reports "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
			return sha
		}
	}
	return "none"
}

// treeDigest hashes every Go source and go.mod file under root, so two
// results from checkouts without git history can still be matched to the
// code they measured.
func treeDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
