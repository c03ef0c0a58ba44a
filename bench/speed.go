package bench

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"shp/internal/stats"
)

// The reference box is a 2-vCPU guest on a shared host, and a wall-clock
// time measured on it is the program's time plus two things that are not the
// program (README.md, "Noise floor"):
//
//   - steal: the hypervisor runs another guest on this vCPU. Over eight
//     back-to-back runs of one seed between 0.5 % and 26 % of a run was
//     stolen, in spells that last minutes, and the median rep moved with it
//     by 13 to 26 % on every workload;
//   - the neighbours' memory traffic: the same gather loop over 16 MB takes
//     0.21 ms in a quiet minute and 0.38 ms in a loud one, and a rep of any
//     workload slows with it.
//
// speedMeter measures both while the workload runs, and settle takes them
// out of a duration: the stolen share is subtracted, and what is left is
// scaled to the speed at which the gather probe takes probeRefMS. The result
// is still seconds, and with no steal and the probe at reference speed it is
// the wall clock. On the reference box the quartile spread of wall_s over
// eight runs of one seed fell from 11–26 % to 2–6 %.
//
// The probe has to see the machine the workload sees, so it runs on the
// workload's own core: Run sets GOMAXPROCS to 1, the probe goroutine sleeps
// probeEvery between samples, and the Go scheduler hands it the core at the
// first preemption point after its timer fires, about every 20 ms during a
// long call. A sample costs a quarter of a millisecond, 1 to 2 % of the core.
const (
	// The probe adds up probeGathers values picked from probeTable float64s
	// through a random index: one dependent-free load per element, the access
	// pattern of a partitioner walking a CSR graph, over a table that a 4 MB
	// L2 does not hold.
	probeTable   = 2 << 20
	probeGathers = 16384
	probeEvery   = 8 * time.Millisecond
	// probeRefMS is what one probe takes on the reference box in a quiet
	// minute. It only fixes the scale: seconds at reference speed.
	probeRefMS = 0.25
	// probeMinSamples is how many samples settle wants: a short interval
	// borrows the ones just before it.
	probeMinSamples = 8
	// probeTablesMB is what the probe's own tables add to the process's
	// peak resident set; Run takes it off peak_rss_mb.
	probeTablesMB = probeTable * (4 + 8) / 1e6
)

type speedMeter struct {
	// The tables live outside the Go heap: on it they would raise the
	// collector's heap goal by twice their size and peak_rss_mb with it.
	mapped []byte
	index  []uint32
	vals   []float64

	mu      sync.Mutex
	samples []float64 // probe durations in ms, in time order
	sink    float64

	stop chan struct{}
	done chan struct{}
}

// startSpeedMeter builds the probe's tables, takes the first samples inline
// and starts the sampling goroutine.
func startSpeedMeter() *speedMeter {
	m := &speedMeter{stop: make(chan struct{}), done: make(chan struct{})}
	if mem, err := syscall.Mmap(-1, 0, probeTable*(8+4), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		m.mapped = mem
		m.vals = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(mem))), probeTable)
		m.index = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(mem[probeTable*8:]))), probeTable)
	} else {
		m.vals, m.index = make([]float64, probeTable), make([]uint32, probeTable)
	}
	for i := range m.index {
		m.index[i] = uint32(i)
		m.vals[i] = float64(i)
	}
	// A fixed shuffle: the probe is the same on every run of every seed.
	state := uint64(0x9e3779b97f4a7c15)
	for i := probeTable - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> 33) % uint64(i+1))
		m.index[i], m.index[j] = m.index[j], m.index[i]
	}
	off := 0
	for i := 0; i < probeMinSamples; i++ {
		off = m.sample(off)
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				off = m.sample(off)
			}
		}
	}()
	return m
}

// sample times one probe over the next stretch of the index.
func (m *speedMeter) sample(off int) int {
	if off+probeGathers > probeTable {
		off = 0
	}
	start := time.Now()
	var sum float64
	for _, i := range m.index[off : off+probeGathers] {
		sum += m.vals[i]
	}
	ms := time.Since(start).Seconds() * 1e3
	m.mu.Lock()
	m.samples = append(m.samples, ms)
	m.sink += sum
	m.mu.Unlock()
	return off + probeGathers
}

func (m *speedMeter) halt() {
	close(m.stop)
	<-m.done
	if m.mapped != nil {
		m.index, m.vals = nil, nil
		syscall.Munmap(m.mapped)
	}
}

// speedMark is the start of an interval settle will be asked about.
type speedMark struct {
	at     time.Time
	sample int
	stolen float64
	onCPU  float64
}

func (m *speedMeter) mark() speedMark {
	m.mu.Lock()
	n := len(m.samples)
	m.mu.Unlock()
	return speedMark{at: time.Now(), sample: n, stolen: stolenSeconds(), onCPU: cpuSeconds()}
}

// settle returns d, a duration measured since mk, in seconds at reference
// speed: less the share of the interval the hypervisor stole, and scaled by
// probeRefMS over the median probe of the interval. It also returns the two
// corrections, for the per-layer report.
func (m *speedMeter) settle(mk speedMark, d time.Duration) (seconds, stolenShare, probeMS float64) {
	if elapsed := time.Since(mk.at).Seconds(); elapsed > 0 {
		// /proc/stat adds up the steal of every vCPU, and the idle one pays
		// it each time the runtime's monitor thread wakes there: in a loud
		// minute it reported 0.93 s stolen over a rep that was off its core for
		// 0.25 s. What was stolen from this process is at most the time it
		// was off the CPU, which the kernel counts to the nanosecond and
		// without the steal; time it spent blocked with nothing stolen stays in.
		offCPU := elapsed - (cpuSeconds() - mk.onCPU)
		stolenShare = min(max(min(stolenSeconds()-mk.stolen, offCPU)/elapsed, 0), 0.9)
	}
	m.mu.Lock()
	from := max(min(mk.sample, len(m.samples)-probeMinSamples), 0)
	probeMS = stats.Percentile(m.samples[from:], 50)
	m.mu.Unlock()
	return d.Seconds() * (1 - stolenShare) * probeRefMS / probeMS, stolenShare, probeMS
}

// stolenSeconds reads the steal column of /proc/stat's first line: the time
// the hypervisor ran something else while a vCPU of this guest wanted to
// run. 0 where there is no such file or column.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on every Linux ABI
}

// cpuSeconds is the CPU time this process has used, user and system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// onOneCore runs f with GOMAXPROCS set to 1 and restores it.
func onOneCore(f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// onAllCores runs f with GOMAXPROCS set to the machine's core count, for the
// traced pass's Parallelism:0 reps, and restores it.
func onAllCores(f func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	return f()
}
