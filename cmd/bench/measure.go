package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 when v is empty); v itself is left as it was.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

// span is one timed call of a layer, recorded from outside the layer.
// Shadow spans replay a tick's batch on a second copy of a nested
// layer after the tick closed; they name the tick span as parent but
// lie outside its interval.
type span struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	Tick   int    `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Shadow bool   `json:"shadow,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run. When off, every
// method returns at once, so the untraced run pays only for the clock
// reads the workloads take anyway.
type tracer struct {
	on     bool
	cpu    int
	epoch  time.Time
	spans  []span
	cost   time.Duration // time spent inside the tracer itself
	allocs [1]metrics.Sample
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now(), cpu: runtime.GOMAXPROCS(0)}
	t.allocs[0].Name = "/gc/heap/allocs:bytes"
	if on {
		t.spans = make([]span, 0, 1<<14)
	}
	return t
}

// add records a span and returns its index (-1 when tracing is off).
func (t *tracer) add(name string, tick int, start, end time.Time, parent int, shadow bool) int {
	if !t.on {
		return -1
	}
	c := time.Now()
	t.spans = append(t.spans, span{
		Name: name, CPU: t.cpu, Tick: tick, Parent: parent, Shadow: shadow,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.cost += time.Since(c)
	return len(t.spans) - 1
}

// allocMB returns the cumulative heap bytes allocated so far, in MB,
// when tracing (0 otherwise). It reads runtime/metrics, which unlike
// ReadMemStats does not stop the world: with a query goroutine
// spinning, two ReadMemStats per tick took ~40% of fleet-read's tick.
func (t *tracer) allocMB() float64 {
	if !t.on {
		return 0
	}
	c := time.Now()
	metrics.Read(t.allocs[:])
	t.cost += time.Since(c)
	return float64(t.allocs[0].Value.Uint64()) / (1 << 20)
}

// stageSums totals span durations by name for one CPU arm (0: all).
func (t *tracer) stageSums(cpu int) map[string]time.Duration {
	sums := make(map[string]time.Duration)
	for _, s := range t.spans {
		if cpu == 0 || s.CPU == cpu {
			sums[s.Name] += s.dur()
		}
	}
	return sums
}

// unattributed returns the share of the named parent spans' time (in
// the given arm) not covered by their non-shadow children.
func (t *tracer) unattributed(cpu int, parent string) float64 {
	var total, covered time.Duration
	for _, s := range t.spans {
		if s.CPU != cpu {
			continue
		}
		switch {
		case s.Name == parent:
			total += s.dur()
		case !s.Shadow && s.Parent >= 0 && t.spans[s.Parent].Name == parent:
			covered += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// gcClock reads the runtime's cumulative GC and total CPU seconds.
type gcClock struct{ s [2]metrics.Sample }

func newGCClock() *gcClock {
	c := &gcClock{}
	c.s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	c.s[1].Name = "/cpu/classes/total:cpu-seconds"
	return c
}

func (c *gcClock) read() (gc, total float64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Float64(), c.s[1].Value.Float64()
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// share returns part/whole, 0 when whole is 0.
func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
