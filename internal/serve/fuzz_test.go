package serve

import (
	"encoding/json"
	"errors"
	"testing"

	"sdadcs/internal/core"
	"sdadcs/internal/dataset"
)

// FuzzConfigRequest checks the job configuration decoder against a fixed
// small dataset: JSON → ConfigRequest.toConfig → engine validation never
// panics; every rejection is a *core.FieldError or the engine's joined
// FieldErrors; and an accepted config keeps its canonical hash after its
// request is re-encoded and decoded.
func FuzzConfigRequest(f *testing.F) {
	d := dataset.NewBuilder("fuzz").
		AddCategorical("color", []string{"red", "blue", "red", "green"}).
		AddContinuous("size", []float64{1, 2.5, 3, 4}).
		SetGroups([]string{"a", "b", "a", "b"}).
		MustBuild()
	f.Add(`{}`)
	f.Add(`{"algorithm":"stucco","top_k":5,"max_depth":2}`)
	f.Add(`{"alpha":0.01,"delta":0.2,"np":true,"measure":"surprising","oe_mode":"conservative"}`)
	f.Add(`{"algorithm":"subgroup","beam_width":10,"bins":4,"min_coverage":3,"min_quality":0.5}`)
	f.Add(`{"algorithm":"mvd","bin_size":50,"max_sweeps":3,"attrs":["size"]}`)
	f.Add(`{"attrs":["color","size","color"]}`)
	f.Add(`{"attrs":["group"]}`)
	f.Add(`{"measure":"nope"}`)
	f.Add(`{"oe_mode":"wild"}`)
	f.Add(`{"algorithm":"dfs"}`)
	f.Add(`{"alpha":2,"delta":-1,"max_depth":-3,"top_k":-1,"beam_width":-1}`)
	f.Add(`{"min_quality":1e308,"workers":1000000}`)
	f.Add(`{"counting":"slice"}`) // retired field: ignored

	f.Fuzz(func(t *testing.T, in string) {
		var cr ConfigRequest
		if json.Unmarshal([]byte(in), &cr) != nil {
			return // not a config object; the HTTP layer answers 400
		}
		cfg, err := cr.toConfig(d)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			if !allFieldErrors(err) {
				t.Fatalf("%s: rejection is not made of *core.FieldError: %#v", in, err)
			}
			return
		}
		hash := cfg.CanonicalHash()
		wire, err := json.Marshal(cr)
		if err != nil {
			t.Fatalf("%s: accepted config does not re-encode: %v", in, err)
		}
		var back ConfigRequest
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("%s: re-encoded config %s does not decode: %v", in, wire, err)
		}
		cfg2, err := back.toConfig(d)
		if err == nil {
			err = cfg2.Validate()
		}
		if err != nil {
			t.Fatalf("%s: re-encoded config %s is rejected: %v", in, wire, err)
		}
		if got := cfg2.CanonicalHash(); got != hash {
			t.Fatalf("%s: canonical hash %s, %s after re-encoding as %s", in, hash, got, wire)
		}
	})
}

// allFieldErrors reports whether err is a *core.FieldError or an
// errors.Join of them (the engine's Validate result).
func allFieldErrors(err error) bool {
	var fe *core.FieldError
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if !errors.As(e, &fe) {
				return false
			}
		}
		return len(joined.Unwrap()) > 0
	}
	return errors.As(err, &fe)
}
