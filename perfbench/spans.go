package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// request share Req; Parent is the enclosing span's ID (0 at the root).
// Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's module prefix ("core.compare" → "core").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays only a nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(req int64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// addSequence records consecutive child spans laid end to end from
// start, one per named duration — how a returned stage breakdown that
// carries durations but no timestamps becomes child spans. It returns
// each span's ID; zero durations are skipped and get ID 0.
func (t *tracer) addSequence(req int64, parent int, start time.Time, names []string, durs []time.Duration) []int {
	ids := make([]int, len(durs))
	at := start
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		ids[i] = t.add(req, parent, names[i], at, at.Add(d))
		at = at.Add(d)
	}
	return ids
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children (clipped to the
// span, overlaps counted once). Indexed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelfPerRequest sums self time by layer within each request and
// returns, per layer, the per-request totals (one entry per request
// that touched the layer).
func layerSelfPerRequest(spans []span) map[string][]time.Duration {
	self := selfTimes(spans)
	perReq := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		m := perReq[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			perReq[s.Req] = m
		}
		m[s.layer()] += self[s.ID]
	}
	out := map[string][]time.Duration{}
	for _, m := range perReq {
		for layer, d := range m {
			out[layer] = append(out[layer], d)
		}
	}
	return out
}
