package main

import (
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans of one unit share its id; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory, clocked from the start
// of the pass. A nil log records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span and returns its id (0 on a nil log).
func (l *spanLog) add(parent, unit int, name string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Unit: unit, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	return id
}

// begin opens a span at the current time; finish closes it.
func (l *spanLog) begin(parent, unit int, name string) int {
	now := time.Now()
	return l.add(parent, unit, name, now, now)
}

func (l *spanLog) finish(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.epoch))
}

// selfTime is the total self time of the spans sharing one name.
type selfTime struct {
	Name  string
	Count int
	NS    int64
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover, largest first. Children of one span never overlap
// here: every span is recorded around one sequential call.
func selfTimes(spans []span) []selfTime {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	index := map[string]int{}
	var out []selfTime
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		out[i].Count++
		out[i].NS += s.End - s.Start - child[s.ID]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].NS > out[j].NS })
	return out
}
