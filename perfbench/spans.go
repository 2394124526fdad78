package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// span is one slice of a job's trace as /v1/jobs/{id}/trace serves it
// (Chrome trace-event JSON, microsecond times).
type span struct {
	Name       string
	ID, Parent string
	TS, Dur    float64 // µs
}

func decodeSpans(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue // lane-name metadata
		}
		id, _ := ev.Args["span"].(string)
		parent, _ := ev.Args["parent"].(string)
		out = append(out, span{Name: ev.Name, ID: id, Parent: parent, TS: ev.TS, Dur: ev.Dur})
	}
	return out, nil
}

// selfTimes maps each span ID to its self time in µs: its duration minus
// the part of its interval that its children's intervals cover.
func selfTimes(spans []span) map[string]float64 {
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]float64, len(spans))
	for _, s := range spans {
		end := s.TS + s.Dur
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].TS < cs[j].TS })
		covered, reach := 0.0, s.TS
		for _, c := range cs {
			lo, hi := max(c.TS, reach), min(c.TS+c.Dur, end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// spanStats is what the traced half of a fleet run's span trees say about
// each layer. Times are milliseconds.
type spanStats struct {
	queueMS, leaseWaitMS, workerRunMS, overheadMS []float64
	runMS, trafficMS                              []float64
	runBusy, trafficBusy                          float64
	runCycles, trafficInsts                       uint64
	joins                                         int
}

// fleetSpans walks every fetched trace. For each cell span it takes the
// queue span's self time, the first execution attempt (worker.run) and,
// inside it, the lease wait and the lease itself. The lease's round trip
// minus the same cell's in-process run time is the shard overhead: frame
// codec, pipe and worker wake-up.
func fleetSpans(jobs []*submitted, ref map[string]*verified) spanStats {
	var st spanStats
	for _, s := range jobs {
		if len(s.spans) == 0 || s.err != nil {
			continue
		}
		self := selfTimes(s.spans)
		kids := map[string][]span{}
		for _, sp := range s.spans {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
		for _, cell := range s.spans {
			var i int
			if _, err := fmt.Sscanf(cell.Name, "cell[%d]", &i); err != nil || i < 0 || i >= len(s.spec.Cells) {
				continue
			}
			c := s.spec.Cells[i]
			for _, k := range kids[cell.ID] {
				switch k.Name {
				case "queue":
					st.queueMS = append(st.queueMS, self[k.ID]/1e3)
				case "cache.join":
					st.joins++
				case "worker.run":
					ms := k.Dur / 1e3
					st.workerRunMS = append(st.workerRunMS, ms)
					if c.Kind == "run" {
						st.runMS = append(st.runMS, ms)
						st.runBusy += ms
						if r := s.lines[i].Result; r != nil {
							st.runCycles += r.Pipe.Cycles
						}
					} else {
						st.trafficMS = append(st.trafficMS, ms)
						st.trafficBusy += ms
						st.trafficInsts += uint64(c.MaxInsts)
					}
					for _, l := range kids[k.ID] {
						switch {
						case l.Name == "lease.wait":
							st.leaseWaitMS = append(st.leaseWaitMS, l.Dur/1e3)
						case strings.HasPrefix(l.Name, "lease[gen"):
							if v := ref[c.Key()]; v != nil && v.err == nil {
								st.overheadMS = append(st.overheadMS, l.Dur/1e3-msOf(v.dur))
							}
						}
					}
				}
			}
		}
	}
	return st
}
