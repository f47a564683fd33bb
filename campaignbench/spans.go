package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of a traced run: the workload, a campaign
// or service job inside it, and the experiments or RPCs inside those.
// Every span of a run carries the run id; times are nanoseconds since the
// run's time origin.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the workload span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Layer  int    `json:"layer"`  // weight layer of an experiment span, else -1
	Worker int    `json:"worker"` // evaluator instance of an experiment span, else -1
}

// spanLog keeps a run's spans in memory until the run ends. It is used
// from the benchmark's main goroutine only.
type spanLog struct {
	run   string
	t0    time.Time
	spans []span
}

func newSpanLog(run string, t0 time.Time) *spanLog { return &spanLog{run: run, t0: t0} }

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

// begin opens a span at the current time and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Run: l.run, ID: id, Parent: parent, Name: name, Start: l.now(), Layer: -1, Worker: -1})
	return id
}

// end closes span id at the current time.
func (l *spanLog) end(id int) { l.spans[id].End = l.now() }

// addExperiments appends one child span per experiment the timing
// wrapper recorded.
func (l *spanLog) addExperiments(parent int, exps []expSpan) {
	for _, e := range exps {
		l.spans = append(l.spans, span{
			Run: l.run, ID: len(l.spans), Parent: parent, Name: "experiment",
			Start: e.start, End: e.end, Layer: int(e.layer), Worker: int(e.worker),
		})
	}
}

// write stores the spans as gzip-compressed JSON lines: a traced
// inference run holds hundreds of thousands of experiment spans, and
// writing them uncompressed would cost tens of MB of disk traffic.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the aggregate of every span of one name: how many, their
// summed duration, and their summed self time — duration minus the part
// of the interval covered by the span's children.
type selfTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes aggregates the log's spans by name, in first-seen order.
func (l *spanLog) selfTimes() []selfTime {
	children := make(map[int][][2]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	idx := map[string]int{}
	var out []selfTime
	for _, s := range l.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		d := s.End - s.Start
		out[i].Count++
		out[i].TotalNs += d
		out[i].SelfNs += d - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the union of the intervals
// covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		lo, hi := max(curS, start), min(curE, end)
		if hi > lo {
			total += hi - lo
		}
	}
	for _, iv := range ivs {
		if curE < 0 || iv[0] > curE {
			if curE >= 0 {
				flush()
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = max(curE, iv[1])
	}
	flush()
	return total
}

// writeSelfTimes prints the self-time table of the run.
func writeSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "span self time (duration minus the part covered by child spans)\n")
	fmt.Fprintf(w, "  %-28s %9s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9d %12.6f %12.6f\n", r.Name, r.Count, float64(r.TotalNs)/1e9, float64(r.SelfNs)/1e9)
	}
}
