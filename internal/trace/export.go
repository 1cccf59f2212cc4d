package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"sdadcs/internal/pattern"
)

// wireFloat is a float64 that survives JSON encoding of non-finite
// values: continuous-range decisions legitimately carry ±Inf bounds
// (open intervals), which encoding/json rejects, so they go on the wire
// as the strings "inf", "-inf" and "nan".
type wireFloat float64

// MarshalJSON encodes non-finite values as strings.
func (f wireFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON inverts MarshalJSON.
func (f *wireFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "inf":
			*f = wireFloat(math.Inf(1))
		case "-inf":
			*f = wireFloat(math.Inf(-1))
		case "nan":
			*f = wireFloat(math.NaN())
		default:
			return fmt.Errorf("trace: bad float value %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = wireFloat(v)
	return nil
}

// optFloat is a payload as the wire carries it: absent when +0, present
// otherwise — so a -0 (a split at a negative-zero median) keeps its sign,
// which a plain omitempty float would drop.
func optFloat(v float64) *wireFloat {
	if math.Float64bits(v) == 0 {
		return nil
	}
	f := wireFloat(v)
	return &f
}

// value inverts optFloat: an absent payload is +0.
func (f *wireFloat) value() float64 {
	if f == nil {
		return 0
	}
	return float64(*f)
}

// wireEvent is the JSONL schema: field order here is the field order on
// the wire (encoding/json emits struct fields in declaration order, so
// equal events marshal to identical bytes).
type wireEvent struct {
	Seq    uint64     `json:"seq"`
	TS     int64      `json:"ts_ns"`
	Kind   string     `json:"kind"`
	Level  int32      `json:"level,omitempty"`
	Worker int32      `json:"worker,omitempty"`
	Key    string     `json:"key,omitempty"`
	Arg    string     `json:"arg,omitempty"`
	V1     *wireFloat `json:"v1,omitempty"`
	V2     *wireFloat `json:"v2,omitempty"`
	V3     *wireFloat `json:"v3,omitempty"`
	Counts []int32    `json:"counts,omitempty"`
}

func toWire(e *Event) wireEvent {
	w := wireEvent{
		Seq:    e.Seq,
		TS:     e.TS,
		Kind:   e.Kind.String(),
		Level:  e.Level,
		Worker: e.Worker,
		Key:    e.Key(),
		Arg:    e.Arg,
		V1:     optFloat(e.V1),
		V2:     optFloat(e.V2),
		V3:     optFloat(e.V3),
	}
	if e.NG > 0 {
		w.Counts = make([]int32, e.NG)
		copy(w.Counts, e.Counts[:e.NG])
	}
	return w
}

func fromWire(w *wireEvent) (Event, error) {
	k, ok := kindFromString(w.Kind)
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", w.Kind)
	}
	e := Event{
		Seq:    w.Seq,
		TS:     w.TS,
		Kind:   k,
		Level:  w.Level,
		Worker: w.Worker,
		Arg:    w.Arg,
		V1:     w.V1.value(),
		V2:     w.V2.value(),
		V3:     w.V3.value(),
	}
	if len(w.Counts) > MaxGroups {
		return Event{}, fmt.Errorf("trace: event %d carries %d group counts (max %d)",
			w.Seq, len(w.Counts), MaxGroups)
	}
	copy(e.Counts[:], w.Counts)
	e.NG = uint8(len(w.Counts))
	if w.Key != "" {
		set, err := pattern.ParseKey(w.Key)
		if err != nil {
			return Event{}, fmt.Errorf("trace: event %d: %w", w.Seq, err)
		}
		e.Set = set
	}
	return e, nil
}

// WriteJSONL writes the trace as one JSON object per line, events in
// sequence order with a fixed field order, preceded by nothing and
// followed by nothing — the append-friendly format cmd/monitor uses for
// per-window segments. Equal traces marshal to identical bytes.
func WriteJSONL(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range tr.Events {
		if err := enc.Encode(toWire(&tr.Events[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL stream produced by WriteJSONL (possibly the
// concatenation of several segments), rebuilding each event's itemset
// from its key; a key that does not parse is a decode error. Volume counters are not part of the
// wire format; the returned trace carries the decoded events only.
func ReadJSONL(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	tr := &Trace{}
	for {
		var w wireEvent
		if err := dec.Decode(&w); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding JSONL event %d: %w", len(tr.Events), err)
		}
		e, err := fromWire(&w)
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, e)
	}
	tr.Emitted = uint64(len(tr.Events))
	return tr, nil
}

// chromeEvent is one entry of the Chrome trace-event format ("JSON Array
// Format"): https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// chromePID is the single logical process all events map to; tids are
// worker IDs (tid 0 = the coordinating goroutine).
const chromePID = 1

// WriteChrome writes the trace in the Chrome trace-event format: a JSON
// array of ph/ts/pid/tid events loadable in Perfetto or chrome://tracing.
// Span kinds (level, sdad, remine) become complete ("X") events with
// durations; everything else becomes thread-scoped instant ("i") events.
// tid maps to the per-level worker goroutine index.
func WriteChrome(w io.Writer, tr *Trace) error {
	out := make([]chromeEvent, 0, len(tr.Events)+2)
	out = append(out,
		chromeEvent{Name: "process_name", Phase: "M", PID: chromePID,
			Args: map[string]any{"name": "sdadcs miner"}},
		chromeEvent{Name: "thread_name", Phase: "M", PID: chromePID, TID: 0,
			Args: map[string]any{"name": "coordinator"}},
	)
	for i := range tr.Events {
		out = append(out, toChrome(&tr.Events[i]))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func toChrome(e *Event) chromeEvent {
	ce := chromeEvent{
		TS:  float64(e.TS) / 1e3, // ns → µs
		PID: chromePID,
		TID: int(e.Worker),
		Args: map[string]any{
			"seq": e.Seq,
		},
	}
	if key := e.Key(); key != "" {
		ce.Args["key"] = key
	}
	if e.Arg != "" {
		ce.Args["arg"] = e.Arg
	}
	if e.NG > 0 {
		ce.Args["counts"] = e.Counts[:e.NG]
	}
	switch e.Kind {
	case KindLevel:
		ce.Name = "level " + strconv.Itoa(int(e.Level))
		ce.Phase = "X"
		ce.Dur = e.V3 / 1e3
		ce.Args["frontier"] = e.V1
		ce.Args["survivors"] = e.V2
	case KindSDAD:
		ce.Name = "sdad-cs"
		ce.Phase = "X"
		ce.Dur = e.V3 / 1e3
		ce.Args["rows"] = e.V1
	case KindRemine:
		ce.Name = "remine"
		ce.Phase = "X"
		ce.Dur = e.V3 / 1e3
		ce.Args["rows"] = e.V1
		ce.Args["patterns"] = e.V2
	default:
		ce.Name = e.Kind.String()
		if e.Arg != "" {
			ce.Name += " " + e.Arg
		}
		ce.Phase = "i"
		ce.Scope = "t"
		if e.Level != 0 {
			ce.Args["level"] = e.Level
		}
		// wireFloat keeps ±Inf range bounds encodable.
		ce.Args["v1"] = wireFloat(e.V1)
		ce.Args["v2"] = wireFloat(e.V2)
		ce.Args["v3"] = wireFloat(e.V3)
	}
	return ce
}
