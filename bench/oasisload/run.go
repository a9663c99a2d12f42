package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number. Samples is the number of latencies a
// percentile was taken over, or of repetitions a median was.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runConfig is the shape of one workload run.
type runConfig struct {
	seed    int64
	window  time.Duration // the timed window
	warmup  time.Duration
	clients int
	// setupBudget and maxSetups bound how often set-up is repeated to
	// take its median: at least minSetups times, then until the budget
	// is spent or maxSetups is reached.
	minSetups, maxSetups int
	setupBudget          time.Duration
	sc                   scale
	// diagnosticOnly marks the traced pass's short window: its
	// end-to-end numbers are not reported, so the sample-size floor
	// that guards them does not apply.
	diagnosticOnly bool
}

// defaultConfig scales the run shape from the window length: warm-up
// is a tenth of the window (at least half a second), enough for the
// daemon's connection, the verify cache and the Go heap to settle.
func defaultConfig(seed int64, seconds float64, nproc int) runConfig {
	window := time.Duration(seconds * float64(time.Second))
	warm := window / 10
	if warm < 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	return runConfig{
		seed: seed, window: window, warmup: warm,
		clients:   clientCount(nproc),
		minSetups: 5, maxSetups: 25, setupBudget: 4 * time.Second,
		sc: fullScale,
	}
}

// clientCount is C = max(1, nproc/2) closed-loop clients, with nproc
// counted before the process confines itself to C CPUs: half the
// host's cores for the benchmark, half left to whatever else the host
// runs.
func clientCount(nproc int) int {
	c := nproc / 2
	if c < 1 {
		c = 1
	}
	return c
}

// workloadResult is everything one untraced run of one workload
// measured.
type workloadResult struct {
	Workload  string            `json:"workload"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Setups    []float64         `json:"setup_runs_s"`
	// Budget is the traced pass's layered latency budget, one line per
	// operation class.
	Budget []string `json:"budget,omitempty"`
}

// running is a deployed workload with its open clients, between set-up
// and tear-down.
type running struct {
	def       workloadDef
	dep       deployment
	clients   []client
	setups    []float64 // seconds of the reference host, one per repetition
	rawSetups []float64 // the same as the clock read them
	starts    []float64 // exec → listening of every daemon started, ms
	sh        *shared   // what the clients of the current drive share
}

// deployWorkload performs set-up, repeating it to take the median of
// its time: every repetition but the last is torn down at once. Set-up
// time is daemon exec → listening plus population; the build is not in
// it. Like every other time it is scaled to the reference host's speed
// (see hostSpeed): between runs minutes apart the seconds the clock
// reads spread three times as wide (bench/README.md has the data). The
// driver's contract fixes its unit to "s", so it is reported in
// seconds of the reference host, with the clock's beside it in rawSetups.
func deployWorkload(h *harness, def workloadDef, cfg runConfig) (*running, error) {
	r := &running{def: def}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var spent time.Duration
	for {
		// Set-up's requests go through a recorder of their own, so the
		// reference pings interleaved with them say how fast the host
		// ran while this repetition was being timed.
		rec := scratchRecorder()
		rec.ref = ref
		began := time.Now()
		dep, err := def.deploy(h, cfg.seed, cfg.sc, rec)
		took := time.Since(began)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		spent += took
		rec.closeUnit()
		speed, _ := hostSpeed(rec.units)
		for _, u := range rec.units {
			took -= time.Duration(u.refNS)
		}
		r.setups = append(r.setups, took.Seconds()*speed)
		r.rawSetups = append(r.rawSetups, took.Seconds())
		for _, d := range dep.daemons() {
			r.starts = append(r.starts, d.startMS)
		}
		n := len(r.setups)
		if n >= cfg.maxSetups || (n >= cfg.minSetups && spent >= cfg.setupBudget) {
			r.dep = dep
			break
		}
		closeDeployment(h, dep)
	}
	for i := 0; i < cfg.clients; i++ {
		c, err := r.dep.newClient(rand.New(rand.NewSource(cfg.seed*1000003 + int64(i))))
		if err != nil {
			r.close(h)
			return nil, fmt.Errorf("%s: opening client %d: %w", def.name, i, err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func closeDeployment(h *harness, dep deployment) {
	if c, ok := dep.(interface{ close() }); ok {
		c.close()
	}
	h.stop(dep.daemons()...)
}

func (r *running) close(h *harness) {
	for _, c := range r.clients {
		c.close()
	}
	closeDeployment(h, r.dep)
}

// windowSample is what the coordinator reads at the two edges of the
// window.
type windowSample struct {
	procs     []procSample
	generator cpuTimes
	done      int64 // requests completed by every client so far
}

// rssRequestsPerSecond fixes the point at which the daemons' peak
// resident set is read: when the clients have completed this many
// requests per second of warm-up and window, or at the window's end if
// they never get that far. Memory is then compared at equal work. Read
// at the window's end it would follow the number of rounds completed
// wherever a daemon keeps what it is given (revoke_storm's in-memory
// daemons never sweep), and a change that made the program faster would
// show as one that made it fatter. Every workload passes this rate with
// a margin of 40 % or more on the host this was written on.
const rssRequestsPerSecond = 5000

// hwmKB is the sum of the daemons' peak resident sets, kB.
func (s windowSample) hwmKB() uint64 {
	var kb uint64
	for _, p := range s.procs {
		kb += p.vmHWMkB
	}
	return kb
}

func (r *running) sample() (windowSample, error) {
	var s windowSample
	for _, d := range r.dep.daemons() {
		p, err := readProc(d.pid)
		if err != nil {
			return s, fmt.Errorf("sampling oasisd %s (pid %d): %w", d.name, d.pid, err)
		}
		s.procs = append(s.procs, p)
	}
	s.done = r.sh.done.Load()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, err
	}
	s.generator = cpuTimes{
		user: time.Duration(ru.Utime.Nano()).Seconds(),
		sys:  time.Duration(ru.Stime.Nano()).Seconds(),
	}
	return s, nil
}

// drive runs every client's closed loop through warm-up and the timed
// window and returns the merged units with the process counters read
// at the window's edges and the daemons' peak resident set in kB (see
// rssRequestsPerSecond). The first error any client returns (a safety
// violation, or a daemon that went away) stops them all.
func (r *running) drive(cfg runConfig) (*windowStats, windowSample, windowSample, uint64, error) {
	start := time.Now().Add(cfg.warmup)
	end := start.Add(cfg.window)
	sh := &shared{}
	for _, d := range r.dep.daemons() {
		sh.pids = append(sh.pids, d.pid)
	}
	r.sh = sh

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	recs := make([]*recorder, len(r.clients))
	refs := make([]*reference, len(r.clients))
	for i := range refs {
		ref, err := newReference()
		if err != nil {
			return nil, windowSample{}, windowSample{}, 0, err
		}
		defer ref.close()
		refs[i] = ref
	}
	for i, c := range r.clients {
		recs[i] = newRecorder(start, sh)
		recs[i].ref = refs[i]
		wg.Add(1)
		go func(c client, rec *recorder) {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(end) {
				if err := c.round(rec); err != nil {
					fail(err)
					return
				}
				rec.endRound()
			}
		}(c, recs[i])
	}

	var before, after windowSample
	time.Sleep(time.Until(start))
	before, err := r.sample()
	if err != nil {
		fail(err)
	}
	rssAt := int64(rssRequestsPerSecond * (cfg.warmup + cfg.window).Seconds())
	var hwmKB uint64
	for hwmKB == 0 && time.Now().Before(end) && !stop.Load() {
		time.Sleep(20 * time.Millisecond)
		if sh.done.Load() >= rssAt {
			s, err := r.sample()
			if err != nil {
				fail(err)
				break
			}
			hwmKB = s.hwmKB()
		}
	}
	time.Sleep(time.Until(end))
	if after, err = r.sample(); err != nil {
		fail(err)
	}
	if hwmKB == 0 {
		hwmKB = after.hwmKB()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, before, after, 0, firstErr
	}
	return mergeRecorders(recs), before, after, hwmKB, nil
}

// runWorkload is one untraced run: set-up, warm-up, the timed window,
// the checks that follow it, tear-down.
func runWorkload(h *harness, def workloadDef, cfg runConfig) (*workloadResult, error) {
	r, err := deployWorkload(h, def, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close(h)
	w, before, after, hwmKB, err := r.drive(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	if err := r.dep.finish(h); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	return r.assemble(w, before, after, hwmKB, cfg)
}

// minCleanSamples is the fewest latencies of a class the clean units
// must hold for its percentiles to be reported from them: p90 needs at
// least ten samples beyond it.
const minCleanSamples = 100

// assemble turns the window's units into named metrics. Every
// end-to-end time is taken over the clean units (see cleanShare) and
// scaled to the reference host's speed (see hostSpeed); the numbers as
// the clock read them are kept beside them under per_layer as
// "noise.*", so a reader can see what the host did to the run.
func (r *running) assemble(w *windowStats, before, after windowSample, hwmKB uint64, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{
		Workload:  r.def.name,
		EndToEnd:  map[string]metric{},
		PerLayer:  map[string]metric{},
		Attempted: w.attempted,
		Failed:    w.failed,
		Correct:   true,
		Setups:    r.setups,
	}
	done := completed(w.all)
	if done == 0 {
		return nil, fmt.Errorf("%s: no unit of %d requests completed in the window (%d attempted, %d failed)", r.def.name, unitRequests, w.attempted, w.failed)
	}
	var cpu cpuTimes
	var ctx uint64
	for i := range after.procs {
		cpu.user += after.procs[i].cpu.user - before.procs[i].cpu.user
		cpu.sys += after.procs[i].cpu.sys - before.procs[i].cpu.sys
		ctx += after.procs[i].ctxSwitches - before.procs[i].ctxSwitches
	}
	gen := after.generator.sub(before.generator)
	// Requests completed between the two edge samples, for the ratios
	// whose numerator is read at the window's edges.
	windowDone := float64(after.done - before.done)

	// Every time below is the time measured over the clean units,
	// scaled by how fast the host ran during those same units.
	speed, pings := hostSpeed(w.clean)
	clients := float64(len(r.clients))

	e := res.EndToEnd
	e["setup_s"] = metric{median(r.setups), "s", len(r.setups)}
	e["throughput_ops_s"] = metric{throughput(w.clean) * clients / speed, "ref_ops/s", completed(w.clean)}
	e["failed_share"] = metric{float64(w.failed) / float64(w.attempted), "ratio", w.attempted}
	e["server_cpu_us_per_op"] = metric{cpuPerRequest(w.clean) * speed, "ref_us", completed(w.clean)}
	e["rss_peak_mb"] = metric{float64(hwmKB) / 1024, "MB", len(after.procs)}

	// What the host did to the run: how many units, how fast it ran in
	// the clean ones, and the headline numbers as the clock read them,
	// over the clean units and over all of them.
	l := res.PerLayer
	l["noise.units"] = metric{float64(len(w.all)), "count", len(w.clean)}
	l["noise.host_speed"] = metric{speed, "ratio", pings}
	l["noise.setup_raw_s"] = metric{median(r.rawSetups), "s", len(r.rawSetups)}
	l["noise.throughput_raw_ops_s"] = metric{throughput(w.clean) * clients, "ops/s", completed(w.clean)}
	l["noise.throughput_all_raw_ops_s"] = metric{throughput(w.all) * clients, "ops/s", done}
	l["noise.server_cpu_raw_us_per_op"] = metric{cpuPerRequest(w.clean), "us", completed(w.clean)}
	l["noise.server_cpu_all_raw_us_per_op"] = metric{cpuPerRequest(w.all), "us", done}
	classes := append([]opClass{r.def.headline}, r.def.classes...)
	for i, c := range classes {
		clean, all := pooled(w.clean, c), pooled(w.all, c)
		if len(clean) < minCleanSamples && !cfg.diagnosticOnly {
			return nil, fmt.Errorf("%s: %d %s samples in the clean units, want at least %d: the window is too short",
				r.def.name, len(clean), opClassNames[c], minCleanSamples)
		}
		name := opClassNames[c]
		if i == 0 {
			name = "op"
		} else if c == r.def.headline {
			e[opClassNames[c]+"_p50_us"], e[opClassNames[c]+"_p90_us"] = e["op_p50_us"], e["op_p90_us"]
			l["oasisd."+opClassNames[c]+"_p99_us"] = l["oasisd.op_p99_us"]
			continue
		}
		e[name+"_p50_us"] = metric{percentile(clean, 0.50) * speed, "ref_us", len(clean)}
		e[name+"_p90_us"] = metric{percentile(clean, 0.90) * speed, "ref_us", len(clean)}
		l["oasisd."+name+"_p99_us"] = metric{percentile(all, 0.99), "us", len(all)}
		l["noise."+name+"_p50_raw_us"] = metric{percentile(clean, 0.50), "us", len(clean)}
		l["noise."+name+"_p50_all_raw_us"] = metric{percentile(all, 0.50), "us", len(all)}
	}
	if t := cpu.total(); t > 0 {
		l["oasisd.cpu_user_share"] = metric{cpu.user / t, "ratio", 0}
	} else {
		l["oasisd.cpu_user_share"] = metric{0, "ratio", 0}
	}
	l["oasisd.ctx_switches_per_op"] = metric{float64(ctx) / windowDone, "count", int(windowDone)}
	l["oasisd.start_ms"] = metric{median(r.starts), "ms", len(r.starts)}
	l["gateway.shed_share"] = metric{float64(w.shed) / float64(w.attempted), "ratio", w.attempted}
	l["generator.cpu_us_per_op"] = metric{gen.total() * 1e6 / windowDone, "us", int(windowDone)}
	return res, nil
}

// sortedNames returns a metric map's names in a stable order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
