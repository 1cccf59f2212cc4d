package core

import (
	"fmt"
	"strings"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
	"sdadcs/internal/trace"
)

// Explanation is the provenance answer to "why is this pattern in (or
// missing from) the result": the exact decision chain the miner recorded
// about the pattern, plus a one-line verdict distilled from it. Built by
// Explain from a Result.Trace; rendered by Format.
type Explanation struct {
	// Key is the queried pattern's canonical key.
	Key string
	// Set is the queried itemset.
	Set pattern.Itemset
	// Verdict summarizes the chain: "emitted", "filtered (…)",
	// "pruned (…)", "evicted from top-k", "rejected by top-k",
	// "discarded (tentative)", "evaluated, no contrast",
	// "subsumed (pruned subset)", "unseen", or "incomplete (N events
	// dropped)" when the pattern has no events in a trace that dropped
	// some: its decisions may be among the dropped ones.
	Verdict string
	// Dropped is the number of events the trace dropped on overflow. The
	// ring keeps a run's earliest events, so when it is not 0 the
	// pattern's later decisions may be missing from Events, and a verdict
	// short of the meaningfulness filter's may be provisional.
	Dropped uint64
	// Events is the decision chain recorded for the pattern itself, in
	// sequence order.
	Events []trace.Event
	// Subset holds prune events of proper subsets when the pattern itself
	// generated no events — the lookup-table provenance for spaces that
	// were never even enumerated because an ancestor was cut.
	Subset []trace.Event
}

// Explain reconstructs the decision chain for one itemset from a mining
// trace. The verdict is distilled with the pipeline's own precedence: the
// meaningfulness filter is the last word, then top-k membership, then the
// pruning rules, then the emission state. When the pattern never generated
// an event, its proper subsets' prune events are consulted (a pruned
// subset cuts the whole combination space, §4.1), and failing that the
// pattern is reported "unseen" — unless the trace dropped events, which
// may have held the pattern's decisions, and the answer is "incomplete".
func Explain(tr *trace.Trace, set pattern.Itemset) Explanation {
	x := Explanation{Key: set.Key(), Set: set}
	if tr != nil {
		x.Dropped = tr.Dropped
	}
	ix := trace.NewIndex(tr)
	x.Events = ix.Events(set)
	if len(x.Events) == 0 {
		x.Subset = subsetPrunes(ix, set)
		switch {
		case x.Dropped > 0:
			x.Verdict = fmt.Sprintf("incomplete (%d events dropped)", x.Dropped)
		case len(x.Subset) > 0:
			x.Verdict = "subsumed (pruned subset)"
		default:
			x.Verdict = "unseen"
		}
		return x
	}

	var lastPrune, lastTopK, lastFilter *trace.Event
	sawEmit, sawEval, inList := false, false, false
	for i := range x.Events {
		e := &x.Events[i]
		switch e.Kind {
		case trace.KindNode, trace.KindSpace:
			sawEval = true
		case trace.KindPrune:
			lastPrune = e
		case trace.KindEmit:
			sawEmit = true
		case trace.KindTopK:
			lastTopK = e
			switch e.Arg {
			case "admitted", "replaced":
				inList = true
			case "evicted":
				inList = false
			}
		case trace.KindFilter:
			lastFilter = e
		}
	}
	switch {
	case lastFilter != nil && lastFilter.Arg == "kept":
		x.Verdict = "emitted"
	case lastFilter != nil:
		verdict, _ := splitArg(lastFilter.Arg)
		x.Verdict = "filtered (" + verdict + ")"
	case inList:
		x.Verdict = "emitted" // no filter ran (NP / SkipMeaningfulFilter)
	case lastTopK != nil && lastTopK.Arg == "evicted":
		x.Verdict = "evicted from top-k"
	case lastTopK != nil && lastTopK.Arg == "rejected":
		x.Verdict = "rejected by top-k"
	case lastPrune != nil:
		rule, _ := splitArg(lastPrune.Arg)
		x.Verdict = "pruned (" + rule + ")"
	case sawEmit:
		x.Verdict = "discarded (tentative)"
	case sawEval:
		x.Verdict = "evaluated, no contrast"
	default:
		x.Verdict = "unseen"
	}
	return x
}

// subsetPrunes collects prune events recorded against proper non-empty
// subsets of the itemset. Itemsets are at most MaxDepth items, so the 2^n
// enumeration is tiny.
func subsetPrunes(ix *trace.Index, set pattern.Itemset) []trace.Event {
	items := set.Items()
	n := len(items)
	var out []trace.Event
	for mask := 1; mask < 1<<uint(n)-1; mask++ {
		var sub []pattern.Item
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, items[i])
			}
		}
		for _, e := range ix.Events(pattern.NewItemset(sub...)) {
			if e.Kind == trace.KindPrune {
				out = append(out, e)
			}
		}
	}
	return out
}

// Format renders the explanation as deterministic text: no timestamps, no
// sequence numbers, events in decision order — the shape the golden tests
// pin and `cmd/contrast -explain` prints. d renders itemset keys as
// human-readable patterns (pass nil to print raw keys).
func (x Explanation) Format(d *dataset.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern: %s\n", renderSet(d, x.Set))
	fmt.Fprintf(&b, "verdict: %s\n", x.Verdict)
	if x.Dropped > 0 && len(x.Events) > 0 && !hasFilterVerdict(x.Events) {
		fmt.Fprintf(&b, "trace: %d events dropped on overflow; later decisions may be missing\n", x.Dropped)
	}
	if len(x.Events) > 0 {
		b.WriteString("decisions:\n")
		for i := range x.Events {
			fmt.Fprintf(&b, "  - %s\n", renderEvent(d, &x.Events[i]))
		}
	}
	if len(x.Subset) > 0 {
		b.WriteString("subset decisions:\n")
		for i := range x.Subset {
			fmt.Fprintf(&b, "  - %s: %s\n",
				renderSet(d, x.Subset[i].Set), renderEvent(d, &x.Subset[i]))
		}
	}
	return b.String()
}

// hasFilterVerdict reports whether a chain holds the meaningfulness
// filter's verdict, the decision nothing comes after.
func hasFilterVerdict(events []trace.Event) bool {
	for i := range events {
		if events[i].Kind == trace.KindFilter {
			return true
		}
	}
	return false
}

// renderSet formats an itemset as a readable pattern when a dataset is
// available, falling back to its canonical key.
func renderSet(d *dataset.Dataset, set pattern.Itemset) string {
	if set.Len() == 0 {
		return "(empty pattern)"
	}
	if d == nil {
		return set.Key()
	}
	return set.Format(d)
}

// renderKey formats a canonical key carried in an event's argument as a
// readable pattern when a dataset is available, falling back to the raw
// key.
func renderKey(d *dataset.Dataset, key string) string {
	if key == "" {
		return "(empty pattern)"
	}
	if d == nil {
		return key
	}
	set, err := pattern.ParseKey(key)
	if err != nil {
		return key
	}
	return set.Format(d)
}

// renderEvent formats one decision without its timestamp or sequence
// number (they are nondeterministic across runs; everything else is stable
// for a single-worker mine).
func renderEvent(d *dataset.Dataset, e *trace.Event) string {
	switch e.Kind {
	case trace.KindNode:
		return fmt.Sprintf("level %d: evaluated (%v rows, group counts %v)",
			e.Level, e.V1, e.GroupCounts())
	case trace.KindSpace:
		return fmt.Sprintf("depth %d: space evaluated (%v rows, group counts %v)",
			e.Level, e.V1, e.GroupCounts())
	case trace.KindPrune:
		rule, detail := splitArg(e.Arg)
		s := fmt.Sprintf("level %d: cut by %s (observed %v vs bound %v)",
			e.Level, rule, e.V1, e.V2)
		if detail != "" {
			s += " via subset " + renderKey(d, detail)
		}
		return s
	case trace.KindSplit:
		return fmt.Sprintf("depth %d: split %s at median %v within (%v, %v]",
			e.Level, e.Arg, e.V1, e.V2, e.V3)
	case trace.KindMerge:
		return fmt.Sprintf("merge %s (similarity p %v, merged diff %v)",
			e.Arg, e.V1, e.V2)
	case trace.KindEmit:
		return fmt.Sprintf("level %d: emitted as contrast (score %v, chi2 %v, p %v)",
			e.Level, e.V1, e.V2, e.V3)
	case trace.KindTopK:
		if e.Arg == "rejected" {
			return fmt.Sprintf("top-k rejected (score %v vs threshold %v)", e.V2, e.V1)
		}
		return fmt.Sprintf("top-k %s (threshold %v -> %v)", e.Arg, e.V1, e.V2)
	case trace.KindFilter:
		verdict, detail := splitArg(e.Arg)
		s := fmt.Sprintf("meaningfulness filter: %s (score %v)", verdict, e.V1)
		if detail != "" {
			s += " explained by " + renderKey(d, detail)
		}
		return s
	case trace.KindSDAD:
		return fmt.Sprintf("sdad-cs invoked over %v rows", e.V1)
	default:
		return fmt.Sprintf("%s %s (%v, %v, %v)", e.Kind, e.Arg, e.V1, e.V2, e.V3)
	}
}

// splitArg splits a composite "label:key" argument at its first colon.
func splitArg(arg string) (label, detail string) {
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		return arg[:i], arg[i+1:]
	}
	return arg, ""
}
