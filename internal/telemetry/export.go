package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CyclesPerMicrosecond converts the deterministic cycle clock to the
// microsecond timestamps the Chrome trace_event format expects, using the
// paper's 3.4 GHz AMD Ryzen as the reference frequency.
const CyclesPerMicrosecond = 3400.0

// chromeEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  uint32         `json:"pid"`
	TID  uint32         `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"` // flow-event binding ID
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTraceSpans renders events and the causal span tree in Chrome
// trace_event JSON, loadable in chrome://tracing and Perfetto. Each VM
// becomes a process (labelled from vmNames), each ASID a thread, events
// with a cycle duration become spans and everything else an instant
// event. Each Span becomes a complete ("X") event carrying its span/parent
// IDs and attributes, and each parent→child edge whose parent is present
// in the capture becomes a flow-event pair ("s" on the parent's track,
// "f" on the child's), which trace viewers draw as causal arrows.
func WriteChromeTraceSpans(w io.Writer, events []Event, spans []Span, vmNames map[uint32]string) error {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].TS != sorted[j].TS {
			return sorted[i].TS < sorted[j].TS
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	sspans := make([]Span, len(spans))
	copy(sspans, spans)
	sort.SliceStable(sspans, func(i, j int) bool {
		if sspans[i].Start != sspans[j].Start {
			return sspans[i].Start < sspans[j].Start
		}
		return sspans[i].ID < sspans[j].ID
	})

	type track struct{ pid, tid uint32 }
	seenPID := map[uint32]bool{}
	seenTID := map[track]bool{}
	// Non-nil so an empty capture serialises as "traceEvents": [] — null
	// is not a valid event array for trace viewers.
	out := []chromeEvent{}

	// Metadata first so viewers label tracks before any event references
	// them.
	var pids []uint32
	tids := map[uint32][]uint32{}
	note := func(vm, asid uint32) {
		if !seenPID[vm] {
			seenPID[vm] = true
			pids = append(pids, vm)
		}
		tr := track{vm, asid}
		if !seenTID[tr] {
			seenTID[tr] = true
			tids[vm] = append(tids[vm], asid)
		}
	}
	for _, e := range sorted {
		note(e.VM, e.ASID)
	}
	for _, s := range sspans {
		note(s.VM, s.ASID)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		name := vmNames[pid]
		if name == "" {
			name = fmt.Sprintf("vm-%d", pid)
		}
		if pid == 0 && vmNames[0] == "" {
			name = "host"
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
		sort.Slice(tids[pid], func(i, j int) bool { return tids[pid][i] < tids[pid][j] })
		for _, tid := range tids[pid] {
			tname := fmt.Sprintf("asid-%d", tid)
			if tid == 0 {
				tname = "cpu"
			}
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": tname},
			})
		}
	}

	for _, e := range sorted {
		ce := chromeEvent{
			Name: e.Kind.String(),
			Cat:  e.Kind.Category(),
			TS:   float64(e.TS) / CyclesPerMicrosecond,
			PID:  e.VM,
			TID:  e.ASID,
			Args: map[string]any{"cycles_ts": e.TS},
		}
		if e.Arg1 != 0 || e.Arg2 != 0 {
			ce.Args["arg1"] = e.Arg1
			ce.Args["arg2"] = e.Arg2
		}
		if e.Detail != "" {
			ce.Args["detail"] = e.Detail
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			d := float64(e.Dur) / CyclesPerMicrosecond
			ce.Dur = &d
			ce.Args["cycles"] = e.Dur
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out = append(out, ce)
	}

	byID := make(map[uint64]*Span, len(sspans))
	for i := range sspans {
		byID[sspans[i].ID] = &sspans[i]
	}
	for i := range sspans {
		s := &sspans[i]
		dur := float64(s.End-s.Start) / CyclesPerMicrosecond
		if s.End < s.Start {
			dur = 0
		}
		args := map[string]any{"span": s.ID, "parent": s.Parent, "cycles_ts": s.Start}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		out = append(out, chromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS: float64(s.Start) / CyclesPerMicrosecond, Dur: &dur,
			PID: s.VM, TID: s.ASID, Args: args,
		})
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		// Causal arrow parent→child. The flow-start timestamp must fall
		// inside the parent slice for viewers to bind it, so clamp the
		// child's start into the parent interval.
		ts := s.Start
		if ts < p.Start {
			ts = p.Start
		}
		if ts > p.End {
			ts = p.End
		}
		out = append(out,
			chromeEvent{
				Name: "causal", Cat: "flow", Ph: "s", ID: s.ID,
				TS: float64(ts) / CyclesPerMicrosecond, PID: p.VM, TID: p.ASID,
			},
			chromeEvent{
				Name: "causal", Cat: "flow", Ph: "f", BP: "e", ID: s.ID,
				TS: float64(s.Start) / CyclesPerMicrosecond, PID: s.VM, TID: s.ASID,
			},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// WriteChromeTrace exports the hub's current trace buffer, spans included.
func (h *Hub) WriteChromeTrace(w io.Writer) error {
	t := h.Trace()
	return WriteChromeTraceSpans(w, t.Events(), t.Spans(), h.VMNames())
}

// WriteJSON renders the snapshot as one JSON object (the expvar-style
// machine-readable export).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as a sorted, human-readable table.
func (s Snapshot) WriteTable(w io.Writer) error {
	section := func(title string, m map[string]uint64) error {
		if len(m) == 0 {
			return nil
		}
		names := make([]string, 0, len(m))
		width := 0
		for k := range m {
			names = append(names, k)
			if len(k) > width {
				width = len(k)
			}
		}
		sort.Strings(names)
		if _, err := fmt.Fprintf(w, "%s:\n", title); err != nil {
			return err
		}
		for _, k := range names {
			if _, err := fmt.Fprintf(w, "  %-*s %12d\n", width, k, m[k]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := section("counters", s.Counters); err != nil {
		return err
	}
	if err := section("gauges", s.Gauges); err != nil {
		return err
	}
	if len(s.Histograms) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintln(w, "histograms:"); err != nil {
		return err
	}
	for _, k := range names {
		h := s.Histograms[k]
		var b strings.Builder
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			if b.Len() > 0 {
				b.WriteString(" ")
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, "<=%d:%d", h.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, ">%d:%d", h.Bounds[len(h.Bounds)-1], c)
			}
		}
		if _, err := fmt.Fprintf(w, "  %s  count=%d mean=%.1f  [%s]\n", k, h.Count, h.Mean(), b.String()); err != nil {
			return err
		}
	}
	return nil
}
