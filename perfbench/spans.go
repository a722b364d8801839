package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oagrid"
)

// span is one timed interval of a campaign, recorded by the benchmark
// around its own calls into the program. Spans of one campaign share its
// ID; Parent is the index of the parent span within the campaign's spans
// (-1 for the root).
type span struct {
	Name     string `json:"name"`
	Campaign uint64 `json:"campaign"`
	Parent   int    `json:"parent"`
	// Start and End are nanoseconds since the traced phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// The campaign's span names: the root covers Run → Wait return, and its
// children split it at the events the handle streams.
const (
	spanCampaign = "oagrid.campaign"
	spanAdmit    = "oagrid.admit"  // Run → EventAdmitted
	spanPlan     = "oagrid.plan"   // EventAdmitted → first EventPlanned
	spanExec     = "oagrid.exec"   // EventPlanned → last EventChunkDone
	spanResult   = "oagrid.result" // last EventChunkDone → EventResult
)

// eventMarks are the arrival times of a campaign's milestone events at the
// client; a zero mark was never seen.
type eventMarks struct {
	admitted, planned, lastChunk, result time.Time
}

// follow consumes the handle's event stream to its end, stamping each
// milestone as the client receives it.
func follow(h *oagrid.Handle) eventMarks {
	var m eventMarks
	for ev := range h.Events() {
		now := time.Now()
		switch ev.(type) {
		case oagrid.EventAdmitted:
			m.admitted = now
		case oagrid.EventPlanned:
			if m.planned.IsZero() {
				m.planned = now
			}
		case oagrid.EventChunkDone:
			m.lastChunk = now
		case oagrid.EventResult:
			m.result = now
		}
	}
	return m
}

// tracer turns event marks into spans relative to the phase's origin.
type tracer struct {
	origin time.Time
}

// campaignSpans builds one campaign's span tree: the root from Run to Wait
// return, then one child per stage whose two bounding events both arrived.
func (t *tracer) campaignSpans(id uint64, start, end time.Time, m eventMarks) []span {
	at := func(x time.Time) int64 { return x.Sub(t.origin).Nanoseconds() }
	spans := []span{{Name: spanCampaign, Campaign: id, Parent: -1, Start: at(start), End: at(end)}}
	stages := []struct {
		name     string
		from, to time.Time
	}{
		{spanAdmit, start, m.admitted},
		{spanPlan, m.admitted, m.planned},
		{spanExec, m.planned, m.lastChunk},
		{spanResult, m.lastChunk, m.result},
	}
	for _, st := range stages {
		if st.from.IsZero() || st.to.IsZero() {
			continue
		}
		spans = append(spans, span{Name: st.name, Campaign: id, Parent: 0, Start: at(st.from), End: at(st.to)})
	}
	return spans
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(spans []span, i int) time.Duration {
	type iv struct{ a, b int64 }
	var cover []iv
	for _, s := range spans {
		if s.Parent == i {
			cover = append(cover, iv{max(s.Start, spans[i].Start), min(s.End, spans[i].End)})
		}
	}
	sort.Slice(cover, func(a, b int) bool { return cover[a].a < cover[b].a })
	var covered, reach int64
	reach = spans[i].Start
	for _, c := range cover {
		if c.b <= reach {
			continue
		}
		covered += c.b - max(c.a, reach)
		reach = c.b
	}
	return spans[i].duration() - time.Duration(covered)
}

// writeSpans dumps every span of the traced phase as JSON lines.
func writeSpans(path string, outs []outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, o := range outs {
		for _, s := range o.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
