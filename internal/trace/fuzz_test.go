package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadJSONL checks that arbitrary input never panics the JSONL
// reader, and that every accepted stream re-exports with WriteJSONL and
// decodes to the same events, float payloads compared bit for bit.
func FuzzReadJSONL(f *testing.F) {
	f.Add(``)
	f.Add(`{"seq":0,"ts_ns":1,"kind":"split","level":1,"arg":"age","v1":38.25,"v2":"-inf","v3":"inf"}`)
	f.Add(`{"seq":1,"ts_ns":2,"kind":"space","level":1,"key":"0@-inf,5383369624024337p-47","v1":1500,"counts":[1445,55]}` + "\n" +
		`{"seq":2,"ts_ns":3,"kind":"prune","level":2,"worker":1,"key":"0=1|3=2","arg":"lookup_table:0=1"}`)
	f.Add(`{"seq":3,"kind":"emit","v1":"nan","v2":-0,"v3":1e308,"counts":[1,2,3,4,5,6,7,8]}`)
	f.Add(`{"kind":"space","counts":[1,2,3,4,5,6,7,8,9]}`) // too many groups
	f.Add(`{"kind":"nope"}`)                               // unknown kind
	f.Add(`{"kind":"level","v1":"infinity"}`)              // bad float string
	f.Add(`{"kind":"filter"}{"kind":"topk"}`)              // concatenated, no newline
	f.Add(`{"kind":"merge","key":"\xff\xfe"}`)             // invalid UTF-8
	// Lines from a real traced mine: `cmd/contrast -workers 1 -trace` on
	// the manufacturing generator's data.
	f.Add(`{"seq":38,"ts_ns":5725261,"kind":"split","level":1,"arg":"CAM_peak_temp_std","v1":10.511241073252988,"v2":"-inf","v3":"inf"}
{"seq":39,"ts_ns":5738059,"kind":"space","level":1,"key":"4@-inf,5917302672587951p-49","v1":200,"counts":[182,18]}
{"seq":75,"ts_ns":5809092,"kind":"emit","level":1,"key":"4@-inf,5917302672587951p-49","v1":0.207760989010989,"v2":30.25,"v3":3.7979124931775376e-8,"counts":[182,18]}
{"seq":128,"ts_ns":5705239,"kind":"sdad","v1":400,"v3":198358}
{"seq":1082,"ts_ns":5627686,"kind":"level","level":1,"v1":132,"v2":131,"v3":1774824}
{"seq":1110,"ts_ns":10458829,"kind":"prune","level":2,"key":"0=0|3=7","arg":"lookup_table:3=7"}
{"seq":1925,"ts_ns":20879547,"kind":"merge","key":"0=2|5@-inf,inf","arg":"merged","v1":0.38197791688621396,"v2":0.27749999999999997}
{"seq":4002,"ts_ns":14183897,"kind":"prune","level":1,"key":"1=3|8@-8117359607907880p-57,inf","arg":"redundancy_clt:8@-8117359607907880p-57,inf","v1":0.08124999999999999,"v2":3.7282663273130336e-7}
{"seq":1076,"ts_ns":7320344,"kind":"topk","key":"4@5938656770476846p-49,5951923032082189p-49","arg":"admitted","v1":"-inf","v2":"-inf"}
{"seq":36000,"ts_ns":60334521,"kind":"filter","key":"0=2","arg":"dependent:0=2|18=0","v1":0.15015625000000002}
`)

	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Fatalf("accepted stream does not re-export: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-exported stream is rejected: %v\n%s", err, buf.String())
		}
		if len(back.Events) != len(tr.Events) {
			t.Fatalf("re-export decodes to %d events, want %d", len(back.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if !sameEvent(&tr.Events[i], &back.Events[i]) {
				t.Fatalf("event %d: %+v re-exports as %+v", i, tr.Events[i], back.Events[i])
			}
		}
	})
}

// sameEvent compares two events field by field, itemsets by canonical key
// and float payloads by bits (NaN equals NaN, and -0 differs from +0).
func sameEvent(a, b *Event) bool {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Seq == b.Seq && a.TS == b.TS && a.Kind == b.Kind && a.Level == b.Level &&
		a.Worker == b.Worker && a.Key() == b.Key() && a.Arg == b.Arg &&
		bitsEq(a.V1, b.V1) && bitsEq(a.V2, b.V2) && bitsEq(a.V3, b.V3) &&
		a.Counts == b.Counts && a.NG == b.NG
}
