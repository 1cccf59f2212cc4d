package obs

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"sdadcs/internal/metrics"
)

// FamilyType is the Prometheus metric type of a family.
type FamilyType string

// Exposition metric types.
const (
	TypeCounter   FamilyType = "counter"
	TypeGauge     FamilyType = "gauge"
	TypeHistogram FamilyType = "histogram"
)

// Label is one name="value" pair on a sample. Labels are written in the
// order given; callers keep that order fixed so two renders of the same
// state are byte-identical.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line of a family.
type Sample struct {
	// Suffix is appended to the family name — "_bucket", "_sum", "_count"
	// for histogram series, "" for plain samples.
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a HELP line, a TYPE line, and its samples
// in a caller-fixed order.
type Family struct {
	Name    string
	Help    string
	Type    FamilyType
	Samples []Sample
}

// Gauge builds a single-sample unlabeled gauge family.
func Gauge(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: TypeGauge,
		Samples: []Sample{{Value: v}}}
}

// Counter builds a single-sample unlabeled counter family.
func Counter(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: TypeCounter,
		Samples: []Sample{{Value: v}}}
}

// HistogramSamples flattens one duration-histogram snapshot into
// Prometheus histogram series under the given fixed labels: cumulative
// "_bucket" samples with seconds-valued le labels, the terminal
// le="+Inf" bucket, then "_sum" (seconds) and "_count". Several label
// sets (e.g. one per route) may be concatenated into one Family.
func HistogramSamples(labels []Label, s metrics.HistogramSnapshot) []Sample {
	cum := s.Cumulative()
	out := make([]Sample, 0, len(cum)+3)
	for _, b := range cum {
		le := withLabel(labels, "le", formatValue(float64(b.HiNanos)/1e9))
		out = append(out, Sample{Suffix: "_bucket", Labels: le, Value: float64(b.Count)})
	}
	out = append(out,
		Sample{Suffix: "_bucket", Labels: withLabel(labels, "le", "+Inf"), Value: float64(s.Count)},
		Sample{Suffix: "_sum", Labels: labels, Value: float64(s.TotalNanos) / 1e9},
		Sample{Suffix: "_count", Labels: labels, Value: float64(s.Count)},
	)
	return out
}

// HistogramFamily wraps one histogram snapshot as a complete family.
func HistogramFamily(name, help string, labels []Label, s metrics.HistogramSnapshot) Family {
	return Family{Name: name, Help: help, Type: TypeHistogram,
		Samples: HistogramSamples(labels, s)}
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float, with the spelled-out infinities.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeHelp escapes a HELP text (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value (backslash, quote, newline).
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteExposition renders the families in Prometheus text format
// (version 0.0.4): one "# HELP" and "# TYPE" line per family followed by
// its samples, in the order given. Output over the same input is
// byte-identical. Invalid metric or label names are an error — callers
// construct names statically, so an invalid name is a programming bug
// surfaced loudly rather than a malformed scrape surfaced by Prometheus.
func WriteExposition(w io.Writer, families []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range families {
		if !validMetricName(f.Name) {
			return fmt.Errorf("obs: invalid metric name %q", f.Name)
		}
		switch f.Type {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			return fmt.Errorf("obs: metric %s: invalid type %q", f.Name, f.Type)
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			name := f.Name + s.Suffix
			if !validMetricName(name) {
				return fmt.Errorf("obs: invalid sample name %q", name)
			}
			bw.WriteString(name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if !validLabelName(l.Name) {
						return fmt.Errorf("obs: metric %s: invalid label name %q", name, l.Name)
					}
					if i > 0 {
						bw.WriteByte(',')
					}
					fmt.Fprintf(bw, `%s="%s"`, l.Name, escapeLabelValue(l.Value))
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ContentType is the Content-Type header value for text exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// PrometheusHandler serves the families fams returns as text exposition.
// It is the one exposition path of cmd/serve and cmd/monitor, both of
// which mount it at GET /metrics/prometheus. An encoding error (an
// invalid metric name, i.e. a programming bug) is logged.
func PrometheusHandler(log *slog.Logger, fams func() []Family) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		if err := WriteExposition(w, fams()); err != nil {
			log.Error("prometheus exposition failed", "error", err)
		}
	}
}

// ---- strict parser ----

// lintSeries is one parsed sample during linting.
type lintSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// labelKey renders a canonical identity for duplicate detection.
func (s lintSeries) labelKey() string {
	names := make([]string, 0, len(s.labels))
	for n := range s.labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.name)
	for _, n := range names {
		fmt.Fprintf(&b, "|%s=%q", n, s.labels[n])
	}
	return b.String()
}

// LintExposition strictly parses a Prometheus text-format page and
// returns the first violation found: metric/label name charsets, label
// value quoting, HELP/TYPE pairing (every sample belongs to a family
// whose HELP and TYPE were declared first, families are contiguous and
// unique), histogram discipline (cumulative non-decreasing le buckets,
// terminal +Inf equal to _count, a _sum and _count per label set), and
// duplicate series. It is the parser side of the encoder's contract and
// doubles as the CI scrape gate (cmd/promlint).
func LintExposition(data []byte) error {
	var fams []*family
	byName := map[string]*family{}
	var cur *family // family currently being declared/populated

	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if !validMetricName(name) {
				return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			switch kind {
			case "HELP":
				if _, dup := byName[name]; dup {
					return fmt.Errorf("line %d: duplicate family %q", lineNo, name)
				}
				cur = &family{name: name}
				byName[name] = cur
				fams = append(fams, cur)
			case "TYPE":
				if cur == nil || cur.name != name {
					return fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, name)
				}
				if cur.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					cur.typ = rest
				default:
					return fmt.Errorf("line %d: invalid type %q for %s", lineNo, rest, name)
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		owner := familyOf(byName, s.name)
		if owner == nil {
			return fmt.Errorf("line %d: sample %s has no HELP/TYPE declaration", lineNo, s.name)
		}
		if owner.typ == "" {
			return fmt.Errorf("line %d: sample %s before its TYPE line", lineNo, s.name)
		}
		if owner != cur {
			return fmt.Errorf("line %d: sample %s outside its contiguous family block", lineNo, s.name)
		}
		if s.name != owner.name && owner.typ != "histogram" && owner.typ != "summary" {
			return fmt.Errorf("line %d: sample %s does not match family %s", lineNo, s.name, owner.name)
		}
		owner.samples = append(owner.samples, s)
	}

	seen := map[string]int{}
	for _, f := range fams {
		if f.typ == "" {
			return fmt.Errorf("family %s: HELP without TYPE", f.name)
		}
		if len(f.samples) == 0 {
			return fmt.Errorf("family %s: declared but has no samples", f.name)
		}
		for _, s := range f.samples {
			k := s.labelKey()
			if prev, dup := seen[k]; dup {
				return fmt.Errorf("duplicate series %s (first seen as sample %d)", k, prev)
			}
			seen[k] = 1
		}
		if f.typ == "histogram" {
			if err := lintHistogram(f.name, f.samples); err != nil {
				return err
			}
		}
	}
	return nil
}

// familyOf resolves which declared family a sample name belongs to,
// accounting for the histogram/summary suffixes.
func familyOf(byName map[string]*family, name string) *family {
	if f, ok := byName[name]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, okf := byName[base]; okf && (f.typ == "histogram" || f.typ == "summary" || f.typ == "") {
				return f
			}
		}
	}
	return nil
}

// family is one declared metric family during linting.
type family struct {
	name    string
	typ     string
	samples []lintSeries
}

// lintHistogram checks one histogram family: per label set (minus le),
// bucket counts are cumulative over ascending le, the terminal bucket is
// le="+Inf", and its value equals the _count sample.
func lintHistogram(name string, samples []lintSeries) error {
	type group struct {
		les       []float64
		counts    []float64
		infCount  float64
		hasInf    bool
		count     float64
		hasCount  bool
		hasSum    bool
		lastIsInf bool
	}
	groups := map[string]*group{}
	key := func(labels map[string]string) string {
		s := lintSeries{name: name, labels: map[string]string{}}
		for k, v := range labels {
			if k != "le" {
				s.labels[k] = v
			}
		}
		return s.labelKey()
	}
	get := func(labels map[string]string) *group {
		k := key(labels)
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
		}
		return g
	}
	for _, s := range samples {
		g := get(s.labels)
		switch s.name {
		case name + "_bucket":
			le, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", name)
			}
			if le == "+Inf" {
				g.hasInf = true
				g.infCount = s.value
				g.lastIsInf = true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %s: unparsable le %q", name, le)
			}
			if g.hasInf {
				// A finite bucket after +Inf breaks the terminal rule.
				g.lastIsInf = false
			}
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.value)
		case name + "_sum":
			g.hasSum = true
		case name + "_count":
			g.hasCount = true
			g.count = s.value
		default:
			return fmt.Errorf("histogram %s: unexpected sample %s", name, s.name)
		}
	}
	for k, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("histogram %s %s: missing le=\"+Inf\" bucket", name, k)
		}
		if !g.lastIsInf {
			return fmt.Errorf("histogram %s %s: le=\"+Inf\" is not the terminal bucket", name, k)
		}
		if !g.hasSum || !g.hasCount {
			return fmt.Errorf("histogram %s %s: missing _sum or _count", name, k)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %s %s: le values not ascending (%v after %v)", name, k, g.les[i], g.les[i-1])
			}
		}
		prev := math.Inf(-1)
		for i, c := range g.counts {
			if c < prev {
				return fmt.Errorf("histogram %s %s: bucket counts not cumulative at le=%v", name, k, g.les[i])
			}
			prev = c
		}
		if len(g.counts) > 0 && g.infCount < g.counts[len(g.counts)-1] {
			return fmt.Errorf("histogram %s %s: +Inf bucket below last finite bucket", name, k)
		}
		if g.infCount != g.count {
			return fmt.Errorf("histogram %s %s: +Inf bucket %v != _count %v", name, k, g.infCount, g.count)
		}
	}
	return nil
}

// parseComment splits a "# HELP name text" / "# TYPE name type" line.
func parseComment(line string) (kind, name, rest string, err error) {
	body, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return "", "", "", fmt.Errorf("malformed comment %q (only \"# HELP\" and \"# TYPE\" are emitted)", line)
	}
	parts := strings.SplitN(body, " ", 3)
	if len(parts) < 2 || (parts[0] != "HELP" && parts[0] != "TYPE") {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind, name = parts[0], parts[1]
	if len(parts) == 3 {
		rest = parts[2]
	}
	if kind == "TYPE" && rest == "" {
		return "", "", "", fmt.Errorf("TYPE line without a type: %q", line)
	}
	return kind, name, rest, nil
}

// parseSample parses one sample line: name{labels} value.
func parseSample(line string) (lintSeries, error) {
	s := lintSeries{labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.name = line[:i]
	if !validMetricName(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var err error
		rest, err = parseLabels(rest[1:], s.labels)
		if err != nil {
			return s, fmt.Errorf("metric %s: %w", s.name, err)
		}
	}
	val, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return s, fmt.Errorf("metric %s: missing value separator", s.name)
	}
	v, err := parseValue(val)
	if err != nil {
		return s, fmt.Errorf("metric %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// parseLabels consumes `name="value",...}` and returns the remainder.
func parseLabels(rest string, out map[string]string) (string, error) {
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", fmt.Errorf("malformed label set")
		}
		name := rest[:eq]
		if !validLabelName(name) {
			return "", fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return "", fmt.Errorf("label %s: unquoted value", name)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", fmt.Errorf("label %s: dangling escape", name)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", fmt.Errorf("label %s: invalid escape \\%c", name, rest[i])
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", fmt.Errorf("label %s: unterminated value", name)
		}
		if _, dup := out[name]; dup {
			return "", fmt.Errorf("duplicate label %s", name)
		}
		out[name] = val.String()
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		return "", fmt.Errorf("malformed label separator after %s", name)
	}
}

// parseValue parses a sample value, accepting the spelled infinities.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparsable value %q", s)
	}
	return v, nil
}
