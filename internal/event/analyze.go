package event

import (
	"fmt"
	"strings"
)

// TraceStats summarizes a decoded event log: per-kind volume, the sim-time
// span covered, and the locality split of the map-task launches (reduce
// launches carry Block < 0 and have no locality to speak of).
type TraceStats struct {
	Counts     Counts
	Start, End float64 // sim time of the first and last event

	MapLaunches      uint64 // TaskLaunch events with Block >= 0
	LocalMapLaunches uint64 // of those, Flag set (data-local)

	ReplicasAdded   uint64 // ReplicaAdd
	ReplicasRemoved uint64 // ReplicaRemove + the removals implied by repair sources

	// Heartbeats is the heartbeat share of the trace — the clock-tick tax
	// the cohort coalescing work exists to contain (~83% of all bus
	// events before coalescing, in the engine study of the time).
	Heartbeats uint64

	// MasterOutages pairs MasterCrash events with their recoveries;
	// MasterDowntime sums the crash→recover spans (an outage the trace ends
	// inside counts up to the last event). DeferredHeartbeats and
	// DeferredReads are the work that piled up while the control plane was
	// down, as carried on the MasterRecover events.
	MasterOutages      uint64
	MasterDowntime     float64
	DeferredHeartbeats int64
	DeferredReads      int64

	// Unknown counts events whose kind this binary does not know (a trace
	// from a newer simulator); they contribute to the span but to no
	// per-kind tally.
	Unknown uint64
}

// Summarize tallies a decoded event log (as returned by ReadLog). Events
// of a kind outside this binary's taxonomy are tallied as Unknown rather
// than panicking, so old analyzers survive newer traces.
func Summarize(events []Event) TraceStats {
	var s TraceStats
	downSince, down := 0.0, false
	for i, ev := range events {
		if int(ev.Kind) >= NumKinds {
			s.Unknown++
		} else {
			s.Counts[ev.Kind]++
		}
		if i == 0 {
			s.Start = ev.Time
		}
		s.End = ev.Time
		switch {
		case ev.Kind == TaskLaunch && ev.Block >= 0:
			s.MapLaunches++
			if ev.Flag {
				s.LocalMapLaunches++
			}
		case ev.Kind == MasterCrash:
			s.MasterOutages++
			downSince, down = ev.Time, true
		case ev.Kind == MasterRecover:
			if down {
				s.MasterDowntime += ev.Time - downSince
				down = false
			}
			s.DeferredHeartbeats += ev.Aux
			s.DeferredReads += ev.Block
		}
	}
	if down {
		// The trace ends mid-outage: count the observed part of it.
		s.MasterDowntime += s.End - downSince
	}
	s.ReplicasAdded = s.Counts[ReplicaAdd]
	s.ReplicasRemoved = s.Counts[ReplicaRemove]
	s.Heartbeats = s.Counts[Heartbeat]
	return s
}

// RenderTraceStats formats a TraceStats block for terminal output.
func RenderTraceStats(s TraceStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events      %d over sim time [%.1f, %.1f] s\n", s.Counts.Total(), s.Start, s.End)
	if span := s.End - s.Start; span > 0 {
		fmt.Fprintf(&b, "rate        %.1f events per sim second\n", float64(s.Counts.Total())/span)
	}
	if s.MapLaunches > 0 {
		fmt.Fprintf(&b, "locality    %d/%d map launches data-local (%.1f%%)\n",
			s.LocalMapLaunches, s.MapLaunches, 100*float64(s.LocalMapLaunches)/float64(s.MapLaunches))
	}
	if total := s.Counts.Total(); total > 0 && s.Heartbeats > 0 {
		line := fmt.Sprintf("heartbeats  %d of %d bus events (%.1f%% heartbeat tax)",
			s.Heartbeats, total, 100*float64(s.Heartbeats)/float64(total))
		if span := s.End - s.Start; span > 0 {
			line += fmt.Sprintf(", %.1f per sim second", float64(s.Heartbeats)/span)
		}
		fmt.Fprintf(&b, "%s\n", line)
	}
	fmt.Fprintf(&b, "replicas    +%d added, -%d removed (net %+d)\n",
		s.ReplicasAdded, s.ReplicasRemoved, int64(s.ReplicasAdded)-int64(s.ReplicasRemoved))
	if s.MasterOutages > 0 {
		line := fmt.Sprintf("master      %d outages, %.1f sim seconds unavailable", s.MasterOutages, s.MasterDowntime)
		if span := s.End - s.Start; span > 0 {
			line += fmt.Sprintf(" (%.1f%%)", 100*s.MasterDowntime/span)
		}
		line += fmt.Sprintf(", %d heartbeats and %d reads deferred", s.DeferredHeartbeats, s.DeferredReads)
		fmt.Fprintf(&b, "%s\n", line)
	}
	if s.Unknown > 0 {
		fmt.Fprintf(&b, "unknown     %d events of kinds this binary does not know\n", s.Unknown)
	}
	fmt.Fprintf(&b, "\n%-16s %10s\n", "kind", "count")
	for k, v := range s.Counts {
		if v == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %10d\n", Kind(k), v)
	}
	return b.String()
}
