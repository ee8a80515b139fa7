package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the harness: the run, a rep, or a call
// into the program's public entry points. Times are nanoseconds since
// the run started; Parent is 0 for the run itself.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. Its methods are
// called from the harness goroutine only; spans timed on worker
// goroutines are collected by the caller and handed over with add.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: l.now()})
	return id
}

func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = l.now()
	return s.dur()
}

func (l *spanLog) add(parent int, spans []span) {
	for _, s := range spans {
		s.ID, s.Parent = len(l.spans)+1, parent
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
