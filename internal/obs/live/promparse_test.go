package live

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// A strict Prometheus text-format (0.0.4) parser, so CI can validate the
// /metrics exposition without an external promtool dependency. "Strict"
// means it rejects, rather than skips, anything malformed: bad metric or
// label names, unquoted or badly-escaped label values, samples for a family
// whose # TYPE has not been declared yet, duplicate TYPE/HELP lines,
// duplicate samples, non-numeric values, and histogram families whose
// cumulative buckets decrease or whose le="+Inf" disagrees with _count.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string            // full sample name, e.g. "wal_ack_ns_bucket"
	Labels map[string]string // nil when the sample has no labels
	Value  float64
}

// PromFamily is one metric family: its declared type and samples in file
// order.
type PromFamily struct {
	Name    string
	Type    string // "counter", "gauge", "histogram", "summary", "untyped"
	Help    string
	Samples []PromSample
}

// PromMetrics is a parsed exposition, keyed by family name.
type PromMetrics map[string]*PromFamily

// Value returns the single sample of a counter/gauge family (and whether
// the family exists with exactly one sample).
func (m PromMetrics) Value(family string) (float64, bool) {
	f, ok := m[family]
	if !ok || len(f.Samples) != 1 {
		return 0, false
	}
	return f.Samples[0].Value, true
}

// Families returns the family names in sorted order.
func (m PromMetrics) Families() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z'):
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// familyOf maps a sample name to its family: histogram/summary series drop
// the _bucket/_sum/_count suffix when that family was declared.
func familyOf(sample string, declared map[string]*PromFamily) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suf)
		if base != sample {
			if f, ok := declared[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
				return base
			}
		}
	}
	return sample
}

// ParsePromText parses and validates a text exposition. Any violation
// returns an error naming the offending line.
func ParsePromText(text string) (PromMetrics, error) {
	families := make(PromMetrics)
	seenSamples := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseCommentLine(line, lineNo, families); err != nil {
				return nil, err
			}
			continue
		}
		sample, err := parseSampleLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		famName := familyOf(sample.Name, families)
		fam, ok := families[famName]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q before its # TYPE declaration", lineNo, sample.Name)
		}
		key := sample.Name + labelKey(sample.Labels)
		if seenSamples[key] {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineNo, key)
		}
		seenSamples[key] = true
		fam.Samples = append(fam.Samples, sample)
	}
	for _, fam := range families {
		if fam.Type == "" {
			return nil, fmt.Errorf("family %q has # HELP but no # TYPE", fam.Name)
		}
		if len(fam.Samples) == 0 {
			return nil, fmt.Errorf("family %q declared but has no samples", fam.Name)
		}
		if fam.Type == "histogram" {
			if err := validateHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return families, nil
}

func parseCommentLine(line string, lineNo int, families PromMetrics) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // plain comment: ignored, per the format
	}
	if len(fields) < 4 {
		return fmt.Errorf("line %d: malformed # %s line", lineNo, fields[1])
	}
	name := fields[2]
	if !validPromName(name) {
		return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
	}
	fam := families[name]
	if fam == nil {
		fam = &PromFamily{Name: name}
		families[name] = fam
	}
	if fields[1] == "HELP" {
		if fam.Help != "" {
			return fmt.Errorf("line %d: duplicate # HELP for %q", lineNo, name)
		}
		fam.Help = fields[3]
		return nil
	}
	if fam.Type != "" {
		return fmt.Errorf("line %d: duplicate # TYPE for %q", lineNo, name)
	}
	if !promTypes[fields[3]] {
		return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
	}
	if len(fam.Samples) > 0 {
		return fmt.Errorf("line %d: # TYPE for %q after its samples", lineNo, name)
	}
	fam.Type = fields[3]
	return nil
}

func parseSampleLine(line string, lineNo int) (PromSample, error) {
	var s PromSample
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		nameEnd = sp
	} else {
		return s, fmt.Errorf("line %d: sample %q has no value", lineNo, line)
	}
	s.Name = rest[:nameEnd]
	if !validPromName(s.Name) {
		return s, fmt.Errorf("line %d: invalid sample name %q", lineNo, s.Name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		labels, remainder, err := parseLabels(rest, lineNo)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = remainder
	}
	rest = strings.TrimLeft(rest, " ")
	valueField := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		// An optional timestamp may follow the value; it must be an integer.
		valueField = rest[:sp]
		ts := strings.TrimSpace(rest[sp+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return s, fmt.Errorf("line %d: bad timestamp %q", lineNo, ts)
		}
	}
	v, err := strconv.ParseFloat(valueField, 64)
	if err != nil {
		return s, fmt.Errorf("line %d: bad sample value %q", lineNo, valueField)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {name="value",...} block (rest starts at '{') and
// returns the labels plus the unconsumed tail.
func parseLabels(rest string, lineNo int) (map[string]string, string, error) {
	labels := make(map[string]string)
	rest = rest[1:] // consume '{'
	for {
		rest = strings.TrimLeft(rest, " ")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: malformed label block", lineNo)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("line %d: invalid label name %q", lineNo, name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("line %d: duplicate label %q", lineNo, name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("line %d: label %q value not quoted", lineNo, name)
		}
		value, remainder, err := parseQuoted(rest, lineNo)
		if err != nil {
			return nil, "", err
		}
		labels[name] = value
		rest = remainder
		switch {
		case strings.HasPrefix(rest, ","):
			rest = rest[1:]
		case strings.HasPrefix(rest, "}"):
		default:
			return nil, "", fmt.Errorf("line %d: expected ',' or '}' after label %q", lineNo, name)
		}
	}
}

// parseQuoted consumes a double-quoted label value (rest starts at '"'),
// honoring the format's \\, \" and \n escapes — anything else is an error.
func parseQuoted(rest string, lineNo int) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("line %d: truncated escape in label value", lineNo)
			}
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("line %d: bad escape \\%c in label value", lineNo, rest[i])
			}
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", fmt.Errorf("line %d: unterminated label value", lineNo)
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "{%s=%q}", k, labels[k])
	}
	return b.String()
}

// validateHistogram enforces the histogram series contract: every _bucket
// has an le label, the cumulative counts are nondecreasing in le order,
// le="+Inf" exists, and it equals the _count sample.
func validateHistogram(fam *PromFamily) error {
	type bkt struct {
		le    float64
		inf   bool
		value float64
	}
	var buckets []bkt
	var count *float64
	sawSum := false
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %q: _bucket sample without le label", fam.Name)
			}
			if le == "+Inf" {
				buckets = append(buckets, bkt{inf: true, value: s.Value})
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("histogram %q: bad le %q", fam.Name, le)
			}
			buckets = append(buckets, bkt{le: f, value: s.Value})
		case fam.Name + "_count":
			v := s.Value
			count = &v
		case fam.Name + "_sum":
			sawSum = true
		default:
			return fmt.Errorf("histogram %q: unexpected sample %q", fam.Name, s.Name)
		}
	}
	if count == nil || !sawSum {
		return fmt.Errorf("histogram %q: missing _count or _sum", fam.Name)
	}
	sort.SliceStable(buckets, func(i, j int) bool {
		if buckets[i].inf != buckets[j].inf {
			return !buckets[i].inf // +Inf sorts last
		}
		return buckets[i].le < buckets[j].le
	})
	if len(buckets) == 0 || !buckets[len(buckets)-1].inf {
		return fmt.Errorf("histogram %q: missing le=\"+Inf\" bucket", fam.Name)
	}
	prev := -1.0
	for _, b := range buckets {
		if b.value < prev {
			return fmt.Errorf("histogram %q: cumulative buckets decrease (%g after %g)", fam.Name, b.value, prev)
		}
		prev = b.value
	}
	if inf := buckets[len(buckets)-1].value; inf != *count {
		return fmt.Errorf("histogram %q: le=\"+Inf\" (%g) != _count (%g)", fam.Name, inf, *count)
	}
	return nil
}

// TestMangleName pins the obs-name -> Prometheus-name mapping.
func TestMangleName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"pfs.visibility_lag.strong", "pfs_visibility_lag_strong"},
		{"wal.ack-ns", "wal_ack_ns"},
		{"plain", "plain"},
		{"9lives", "_9lives"},
	}
	for _, c := range cases {
		if got := MangleName(c.in); got != c.want {
			t.Errorf("MangleName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseAcceptsWellFormed: the strict parser accepts a representative
// exposition — counters, gauges, a labeled histogram, escaped label values,
// timestamps, and plain comments — and reads the values back.
func TestParseAcceptsWellFormed(t *testing.T) {
	text := strings.Join([]string{
		`# generation 7`,
		`# HELP ops_total obs instrument ops.total`,
		`# TYPE ops_total counter`,
		`ops_total 42`,
		`# TYPE depth gauge`,
		`depth -3 1700000000000`,
		`# TYPE lag_ns histogram`,
		`lag_ns_bucket{le="0"} 1`,
		`lag_ns_bucket{le="1023"} 4`,
		`lag_ns_bucket{le="+Inf"} 5`,
		`lag_ns_sum 2000`,
		`lag_ns_count 5`,
		`# TYPE weird gauge`,
		`weird{path="a\"b\\c\nd",rank="3"} 1.5`,
		``,
	}, "\n")
	m, err := ParsePromText(text)
	if err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
	if v, ok := m.Value("ops_total"); !ok || v != 42 {
		t.Errorf("ops_total = (%g, %v), want (42, true)", v, ok)
	}
	if v, ok := m.Value("depth"); !ok || v != -3 {
		t.Errorf("depth = (%g, %v), want (-3, true)", v, ok)
	}
	if f := m["lag_ns"]; f == nil || len(f.Samples) != 5 {
		t.Errorf("lag_ns family missing or wrong arity: %+v", f)
	}
	if f := m["ops_total"]; f.Help != "obs instrument ops.total" {
		t.Errorf("HELP text = %q", f.Help)
	}
	want := map[string]string{"path": "a\"b\\c\nd", "rank": "3"}
	got := m["weird"].Samples[0].Labels
	for k, v := range want {
		if got[k] != v {
			t.Errorf("label %s = %q, want %q", k, got[k], v)
		}
	}
}

// TestParseRejectsMalformed: every violation class the parser claims to
// catch is actually rejected.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, text string }{
		{"sample before TYPE", "orphan 1\n"},
		{"HELP without TYPE", "# HELP lonely x\nlonely 1\n"},
		{"declared without samples", "# TYPE empty counter\n"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"duplicate HELP", "# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n"},
		{"TYPE after samples", "# TYPE a counter\na 1\n# TYPE a gauge\n"},
		{"unknown type", "# TYPE a widget\na 1\n"},
		{"duplicate sample", "# TYPE a counter\na 1\na 2\n"},
		{"bad metric name", "# TYPE 1bad counter\n1bad 1\n"},
		{"bad sample value", "# TYPE a counter\na pancake\n"},
		{"bad timestamp", "# TYPE a counter\na 1 soon\n"},
		{"no value", "# TYPE a counter\na\n"},
		{"bad label name", `# TYPE a counter` + "\n" + `a{1x="v"} 1` + "\n"},
		{"unquoted label value", `# TYPE a counter` + "\n" + `a{x=v} 1` + "\n"},
		{"bad escape", `# TYPE a counter` + "\n" + `a{x="\t"} 1` + "\n"},
		{"unterminated label value", `# TYPE a counter` + "\n" + `a{x="v} 1` + "\n"},
		{"duplicate label", `# TYPE a counter` + "\n" + `a{x="1",x="2"} 1` + "\n"},
		{"histogram bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n"},
		{"histogram missing +Inf", `# TYPE h histogram` + "\n" + `h_bucket{le="10"} 1` + "\n" + `h_sum 0` + "\n" + `h_count 1` + "\n"},
		{"histogram missing sum", `# TYPE h histogram` + "\n" + `h_bucket{le="+Inf"} 1` + "\n" + `h_count 1` + "\n"},
		{"histogram cumulative decreases", `# TYPE h histogram` + "\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + `h_sum 0` + "\n" + `h_count 5` + "\n"},
		{"histogram +Inf != count", `# TYPE h histogram` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" + `h_sum 0` + "\n" + `h_count 4` + "\n"},
	}
	for _, c := range cases {
		if _, err := ParsePromText(c.text); err == nil {
			t.Errorf("%s: accepted:\n%s", c.name, c.text)
		}
	}
}

// TestPromTextRoundTrip: the exposition PromText renders from a real
// registry snapshot passes the strict parser, declares the right types, and
// carries the right values — including cumulative histogram buckets.
func TestPromTextRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("ops.total").Add(7)
	r.Gauge("queue.depth").Set(-2)
	h := r.Histogram("lag.ns")
	h.Observe(0)
	h.Observe(5)
	h.Observe(5000)

	text := PromText(r.Snapshot(), 3)
	if !strings.HasPrefix(text, "# generation 3\n") {
		t.Errorf("missing generation comment:\n%s", text)
	}
	m, err := ParsePromText(text)
	if err != nil {
		t.Fatalf("PromText output rejected by strict parser: %v\n%s", err, text)
	}
	if v, ok := m.Value("ops_total"); !ok || v != 7 {
		t.Errorf("ops_total = (%g, %v), want (7, true)", v, ok)
	}
	if m["ops_total"].Type != "counter" {
		t.Errorf("ops_total type = %q", m["ops_total"].Type)
	}
	if v, ok := m.Value("queue_depth"); !ok || v != -2 {
		t.Errorf("queue_depth = (%g, %v), want (-2, true)", v, ok)
	}
	if m["queue_depth"].Type != "gauge" {
		t.Errorf("queue_depth type = %q", m["queue_depth"].Type)
	}
	fam := m["lag_ns"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("lag_ns family missing or not a histogram: %+v", fam)
	}
	var inf, count, sum float64
	zero := -1.0
	for _, s := range fam.Samples {
		switch s.Name {
		case "lag_ns_bucket":
			switch s.Labels["le"] {
			case "+Inf":
				inf = s.Value
			case "0":
				zero = s.Value
			}
		case "lag_ns_count":
			count = s.Value
		case "lag_ns_sum":
			sum = s.Value
		}
	}
	if inf != 3 || count != 3 {
		t.Errorf("+Inf = %g, _count = %g, want 3", inf, count)
	}
	if zero != 1 {
		t.Errorf("le=\"0\" bucket = %g, want 1 (the Observe(0))", zero)
	}
	if sum != 5005 {
		t.Errorf("_sum = %g, want 5005", sum)
	}

	// Determinism: same snapshot renders byte-identically.
	if again := PromText(r.Snapshot(), 3); again != text {
		t.Error("PromText is not deterministic for an unchanged registry")
	}
}
