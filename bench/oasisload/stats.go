package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample
// at or below it. Nearest rank never interpolates, so a reported
// latency is always one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for an even
// count). It sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opClass names one kind of operation a workload performs.
type opClass int

const (
	opIntrospect opClass = iota
	opIssue
	opRevoke
	opPeerValidate
	opRevokeVisible
	opRound // the workload's headline operation when it spans several requests
	numOpClasses
)

var opClassNames = [numOpClasses]string{
	"introspect", "issue", "revoke", "peer_validate", "revoke_visible", "round",
}

// unitRequests is how many completed requests close a unit (at the
// next round boundary). A unit is the benchmark's slice: a run of
// whole rounds, so every unit of a workload has the same operation mix
// and its duration per request is comparable with every other's. At
// the rates these workloads run it lasts 15 to 50 ms.
const unitRequests = 250

// unit is one slice of one client's closed loop.
type unit struct {
	start, end time.Time
	requests   int   // completed, checked requests of this client
	allDone    int64 // requests completed by every client over the unit
	cpuNS      int64 // the daemons' CPU time over the unit
	refNS      int64 // wall time of the reference pings interleaved with the unit
	refN       int   // how many there were
	lat        [numOpClasses][]float64
	attempted  int
	failed     int
	shed       int
}

// wall is the unit's duration less the reference pings interleaved
// with it.
func (u *unit) wall() time.Duration { return u.end.Sub(u.start) - time.Duration(u.refNS) }

// perRequest is the unit's wall time per completed request: the
// figure units are ranked by.
func (u *unit) perRequest() float64 { return float64(u.wall()) / float64(u.requests) }

// shared is what the clients of one run have in common: the count of
// requests completed by all of them and the processes whose CPU time
// is the server's.
type shared struct {
	done atomic.Int64
	pids []int
}

func (s *shared) cpuNS() int64 {
	var total int64
	for _, pid := range s.pids {
		ns, err := cpuClockNS(pid)
		if err != nil {
			return -1 // the daemon is gone; the window-edge sample reports it
		}
		total += ns
	}
	return total
}

// recorder collects one client's samples, cut into units. Units that
// begin before the window opens (warm-up) or are still open when it
// closes are dropped, so the same loop serves warm-up and measurement.
type recorder struct {
	windowStart time.Time
	sh          *shared

	cur      *unit
	curDone  int64      // sh.done when cur began
	curCPU   int64      // sh.cpuNS() when cur began
	ref      *reference // nil: no reference pings
	sinceRef int        // cur.requests at the last ping
	units    []*unit

	// onObserve, if set, sees every completed operation as it is
	// recorded: the traced pass hangs its depth-0 spans on it.
	onObserve func(class opClass, d time.Duration)
}

func newRecorder(windowStart time.Time, sh *shared) *recorder {
	r := &recorder{windowStart: windowStart, sh: sh}
	r.open(time.Now())
	return r
}

// scratchRecorder serves set-up and probes: it keeps everything from
// now on and reads no process clocks.
func scratchRecorder() *recorder { return newRecorder(time.Now(), &shared{}) }

func (r *recorder) open(now time.Time) {
	r.cur = &unit{start: now}
	r.curDone = r.sh.done.Load()
	r.curCPU = r.sh.cpuNS()
	r.sinceRef = 0
}

// endRound is called between rounds. It closes the current unit once
// it holds enough requests.
func (r *recorder) endRound() {
	if r.ref != nil {
		for ; r.cur.requests-r.sinceRef >= refEvery; r.sinceRef += refEvery {
			r.ping()
		}
	}
	if r.cur.requests >= unitRequests {
		r.closeUnit()
	}
}

// refEvery: one reference ping per this many requests, made between
// rounds. At 10 us a ping, that is under 3 % of the fastest workload's
// time, and a unit of 250 requests holds 15 pings.
const refEvery = 16

// ping makes one reference round trip and charges it to the current
// unit. A failed ping is dropped: the unit then leans on the others.
func (r *recorder) ping() {
	if d, err := r.ref.ping(); err == nil {
		r.cur.refNS += int64(d)
		r.cur.refN++
	}
}

func (r *recorder) closeUnit() {
	now := time.Now()
	u := r.cur
	u.end = now
	u.allDone = r.sh.done.Load() - r.curDone
	u.cpuNS = r.sh.cpuNS() - r.curCPU
	if !u.start.Before(r.windowStart) {
		r.units = append(r.units, u)
	}
	r.open(now)
}

// observe records one completed, checked operation. requests is how
// many client requests it stands for in the throughput count: 1 for a
// plain request, 0 for a latency that spans requests already counted
// on their own.
func (r *recorder) observe(class opClass, d time.Duration, requests int) {
	u := r.cur
	u.lat[class] = append(u.lat[class], float64(d)/float64(time.Microsecond))
	u.requests += requests
	u.attempted += requests
	r.sh.done.Add(int64(requests))
	if r.onObserve != nil {
		r.onObserve(class, d)
	}
}

// count records one completed, checked request whose latency is not
// reported under any class.
func (r *recorder) count() {
	r.cur.requests++
	r.cur.attempted++
	r.sh.done.Add(1)
}

// fail counts one attempted operation that failed, was refused, timed
// out or answered wrongly.
func (r *recorder) fail(shed bool) {
	r.cur.attempted++
	r.cur.failed++
	if shed {
		r.cur.shed++
	}
}

// absorbFailures adds the failure counts of a recorder that ran beside
// this one.
func (r *recorder) absorbFailures(o *recorder) {
	r.cur.attempted += o.cur.attempted
	r.cur.failed += o.cur.failed
	r.cur.shed += o.cur.shed
}

// cleanShare is the share of units, ranked by wall time per request,
// that the reported metrics are taken over. The host this runs on is a
// small virtual machine whose speed drops by 15 to 40 % when its
// neighbours are busy, in bursts of milliseconds and in stretches of
// minutes. The noise is one-sided (nothing makes a unit faster than
// the code allows), so the fastest units are the ones that measured
// the program; the rest measured the neighbours as well. That deals
// with the bursts. The stretches, which slow every unit of a run, are
// what the reference pings are for (hostSpeed). bench/README.md has the
// data behind both. A regression in the code moves every unit, the
// fastest included, and leaves the pings alone.
const cleanShare = 0.25

// windowStats is the merged view of every client's units.
type windowStats struct {
	all   []*unit
	clean []*unit // the fastest cleanShare of all

	attempted, failed, shed int
}

func mergeRecorders(recs []*recorder) *windowStats {
	w := &windowStats{}
	for _, r := range recs {
		w.all = append(w.all, r.units...)
		// The unit still open when the window closed gives no timings,
		// but a failure in it is still a failure of the run.
		w.attempted += r.cur.attempted
		w.failed += r.cur.failed
		w.shed += r.cur.shed
	}
	for _, u := range w.all {
		w.attempted += u.attempted
		w.failed += u.failed
		w.shed += u.shed
	}
	ranked := append([]*unit(nil), w.all...)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].perRequest() < ranked[j].perRequest() })
	n := int(cleanShare*float64(len(ranked)) + 0.5)
	if n < 1 && len(ranked) > 0 {
		n = 1
	}
	w.clean = ranked[:n]
	return w
}

// pooled gathers a class's latencies over the units, sorted.
func pooled(units []*unit, class opClass) []float64 {
	var all []float64
	for _, u := range units {
		all = append(all, u.lat[class]...)
	}
	sort.Float64s(all)
	return all
}

// throughput is completed requests per second of wall time, over the
// units.
func throughput(units []*unit) float64 {
	var reqs int
	var wall time.Duration
	for _, u := range units {
		reqs += u.requests
		wall += u.wall()
	}
	if wall <= 0 {
		return 0
	}
	return float64(reqs) / wall.Seconds()
}

// cpuPerRequest is the daemons' CPU microseconds per request completed
// by any client, over the units.
func cpuPerRequest(units []*unit) float64 {
	var cpu, done int64
	for _, u := range units {
		cpu += u.cpuNS
		done += u.allDone
	}
	if done == 0 {
		return 0
	}
	return float64(cpu) / 1e3 / float64(done)
}

// refNominalUS is what one reference ping costs on the reference host:
// the 2-vCPU virtual machine this benchmark was written on, when it is
// quiet and nothing else wants the CPU. Times are reported as measured
// x refNominalUS / (the mean ping interleaved with them) and carry the
// unit ref_us: microseconds on a host where the ping costs 10 us.
const refNominalUS = 10.0

// hostSpeed is how fast the host ran during the units, relative to the
// reference host: refNominalUS over the mean reference ping interleaved
// with them. The mean, not the median: a disturbance shows in the share
// of pings it hits, which the median ignores until it passes half (over
// ten runs the mean-scaled storm p50 spread by 2.8 %, the median-scaled
// by 5.8 %, no better than unscaled). The ping also waits when a
// daemon's background work holds the CPU, so its mean differs between
// workloads (10 to 16 us here): a ref_us is comparable between runs of
// one workload, which is what a regression gate needs, not between
// workloads. Without pings (fewer than minPings) the speed is 1:
// nothing is scaled on a guess.
func hostSpeed(units []*unit) (speed float64, pings int) {
	var ns int64
	for _, u := range units {
		ns += u.refNS
		pings += u.refN
	}
	const minPings = 8
	if pings < minPings || ns <= 0 {
		return 1, pings
	}
	return refNominalUS * 1e3 * float64(pings) / float64(ns), pings
}

// completed is the number of completed, checked requests in the units.
func completed(units []*unit) int {
	n := 0
	for _, u := range units {
		n += u.requests
	}
	return n
}
