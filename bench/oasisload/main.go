// oasisload is the repository's end-to-end benchmark. It builds
// cmd/oasisd from the tree, boots real oasisd processes on loopback,
// drives four closed-loop workloads from this one process, checks
// every answer, prints every metric by name with its unit and writes
// bench/out/result.json. With -trace 1 it instead runs the traced
// pass: a short window for the process-level diagnostics, a seeded
// replay of the workload at successive depths (daemon, in-process
// handler, engine call, leaf calls) recorded as spans, and timed calls
// into every layer's public functions. bench/README.md documents the
// metrics, the workloads and how to compare two runs.
//
// Usage:
//
//	oasisload [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	oasisload -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment records where and how a result was measured, so two
// result files can be told apart before they are compared.
type environment struct {
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Clients       int     `json:"clients"`
	CPUs          []int   `json:"cpus"` // the CPUs generator and daemons are confined to
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	WindowSeconds float64 `json:"window_seconds"`
	UnitRequests  int     `json:"unit_requests"`
	CleanShare    float64 `json:"clean_share"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Trace         int     `json:"trace"`
	LoadAvgStart  float64 `json:"loadavg_1m_start"`
	LoadAvgEnd    float64 `json:"loadavg_1m_end"`
	Started       string  `json:"started"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Env       environment       `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

// commitOf names the tree being measured. A checkout that is not a git
// repository (the driver's) says so instead of borrowing a name.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "+dirty"
	}
	return commit
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func newEnvironment(root string, cfg runConfig, trace int, nproc int, cpus []int) environment {
	env := environment{
		Commit:        commitOf(root),
		Seed:          cfg.seed,
		NProc:         nproc,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Clients:       cfg.clients,
		CPUs:          cpus,
		GoVersion:     runtime.Version(),
		Kernel:        kernelRelease(),
		WindowSeconds: cfg.window.Seconds(),
		UnitRequests:  unitRequests,
		CleanShare:    cleanShare,
		WarmupSeconds: cfg.warmup.Seconds(),
		Trace:         trace,
		Started:       time.Now().UTC().Format(time.RFC3339),
	}
	env.LoadAvgStart = noteLoad("start", nproc)
	return env
}

// noteLoad reads the 1-minute load average and warns when the host is
// busier than it has cores: the numbers that follow then measure the
// neighbours as much as the program.
func noteLoad(when string, nproc int) float64 {
	load, err := loadAvg()
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: warning: load average unreadable: %v\n", err)
		return -1
	}
	if load > float64(nproc) {
		fmt.Fprintf(os.Stderr, "oasisload: warning: 1-minute load average at %s is %.2f on %d core(s); expect noisy numbers\n",
			when, load, nproc)
	}
	return load
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of every generated input (token choice, user names, sentinel choice)")
		seconds  = flag.Float64("seconds", 15, "length of the timed window per workload")
		trace    = flag.Int("trace", 0, "0: untraced pass, reports the end-to-end metrics; 1: traced pass, reports the per-layer metrics")
		out      = flag.String("out", "", "result file (default bench/out/result.json)")
		compare  = flag.Bool("compare", false, "compare two result files: oasisload -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: oasisload -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if def, ok := workloadByName(*workload); ok {
		defs = []workloadDef{def}
	} else {
		fmt.Fprintf(os.Stderr, "oasisload: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// C closed-loop clients on C CPUs, generator and daemons together
	// (see confineTo). Every process then runs as it would on a C-CPU
	// host: the daemons read GOMAXPROCS = C from their inherited
	// affinity, and the generator, which read nproc before it confined
	// itself, is set to match.
	nproc := runtime.NumCPU()
	cpus, err := confineTo(clientCount(nproc))
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(len(cpus))

	h, err := newHarness()
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
		return 1
	}
	// Every exit path below goes through cleanup: the deferred call
	// covers return and panic, the handler covers SIGINT and SIGTERM.
	defer h.cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "oasisload: %v: killing daemons\n", s)
		h.cleanup()
		os.Exit(130)
	}()

	if *trace == 1 {
		// Each workload's traced pass appends its spans; the file as a
		// whole is this invocation's.
		if err := os.Remove(filepath.Join(h.outDir, "trace.jsonl")); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
			return 1
		}
	}
	cfg := defaultConfig(*seed, *seconds, nproc)
	file := resultFile{Env: newEnvironment(h.root, cfg, *trace, nproc, cpus)}
	code := 0
	for _, def := range defs {
		var res *workloadResult
		if *trace == 1 {
			res, err = runTraced(h, def, cfg)
		} else {
			res, err = runWorkload(h, def, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
			var v *violation
			if !errors.As(err, &v) {
				// Not a wrong answer but a run that could not be made:
				// there is nothing to report.
				return 1
			}
			res = &workloadResult{Workload: def.name, Correct: false, Attempted: 1, Failed: 1}
			code = 1
		}
		file.Workloads = append(file.Workloads, res)
		printResult(os.Stdout, res)
	}
	file.Env.LoadAvgEnd = noteLoad("end", nproc)

	path := *out
	if path == "" {
		path = filepath.Join(h.outDir, "result.json")
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("# wrote %s\n", path)
	if len(defs) == 1 {
		printContractLine(file.Workloads[0], *trace)
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of one workload by name with its
// unit.
func printResult(w *os.File, res *workloadResult) {
	fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	for _, name := range sortedNames(res.EndToEnd) {
		m := res.EndToEnd[name]
		fmt.Fprintf(w, "   %-28s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, name := range sortedNames(res.PerLayer) {
		m := res.PerLayer[name]
		fmt.Fprintf(w, "     %-32s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, line := range res.Budget {
		fmt.Fprintf(w, "   budget %s\n", line)
	}
}

// wireMetric is a metric as the benchmark driver reads it.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics selects what the driver is told: with -trace 0 every
// end-to-end metric BENCHMARK.json declares, with -trace 1 every
// per-layer metric it declares.
func contractMetrics(res *workloadResult, trace int) map[string]wireMetric {
	out := map[string]wireMetric{}
	if trace == 0 {
		for _, d := range endToEnd {
			if m, ok := res.EndToEnd[d.name]; ok && d.gated {
				out[d.name] = wireMetric{m.Value, m.Unit}
			}
		}
		return out
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.name]; ok {
			out[d.name] = wireMetric{m.Value, m.Unit}
		}
	}
	return out
}

// printContractLine prints, as the last line of standard output, the
// one JSON object the driver reads.
func printContractLine(res *workloadResult, trace int) {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, contractMetrics(res, trace)}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
		return
	}
	fmt.Println(string(data))
}
