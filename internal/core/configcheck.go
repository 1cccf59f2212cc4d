package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"sdadcs/internal/dataset"
	"sdadcs/internal/pattern"
)

// FieldError reports one invalid Config field. Validate wraps every
// violation it finds in a FieldError, so callers can errors.As for the
// field name (an HTTP layer turns them into 400 payloads).
type FieldError struct {
	// Field is the Config field name (e.g. "Delta").
	Field string
	// Value is the rejected value.
	Value any
	// Reason states what a valid value looks like.
	Reason string
}

// Error renders "config: Field = value: reason".
func (e *FieldError) Error() string {
	return fmt.Sprintf("config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks a configuration for field values that defaults() would
// otherwise silently accept but that can only be caller mistakes. Zero
// values are never errors — the zero Config is documented as usable (every
// zero field maps to the paper's default) — so Validate rejects only
// actively malformed settings: negative thresholds and bounds, α outside
// (0, 1), NaN, and out-of-range enum values. All violations are collected
// and returned joined (errors.Join); each is a *FieldError.
//
// MineContext validates before mining and returns the error with an empty
// Result, so a malformed config is surfaced instead of silently "fixed".
func (c *Config) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &FieldError{Field: field, Value: value, Reason: reason})
	}
	if math.IsNaN(c.Alpha) || c.Alpha < 0 || c.Alpha >= 1 {
		bad("Alpha", c.Alpha, "significance level must lie in (0,1); 0 selects the default 0.05")
	}
	if math.IsNaN(c.Delta) || c.Delta < 0 || c.Delta >= 1 {
		bad("Delta", c.Delta, "minimum support difference must lie in [0,1); 0 selects the default 0.1")
	}
	if c.MaxDepth < 0 {
		bad("MaxDepth", c.MaxDepth, "attribute-combination depth must be >= 1; 0 selects the default 5")
	}
	if c.MaxRecursion < 0 {
		bad("MaxRecursion", c.MaxRecursion, "SDAD-CS recursion bound must be >= 1; 0 selects the default 8")
	}
	if c.TopK < 0 && c.TopK != TopKUnbounded {
		bad("TopK", c.TopK, "result bound must be >= 1; 0 selects the default 100, TopKUnbounded (-1) disables the bound")
	}
	if c.Workers < 0 {
		bad("Workers", c.Workers, "worker count must be >= 1; 0 selects the default 1")
	}
	if c.Measure < pattern.SupportDiff || c.Measure > pattern.MaxMeasure {
		bad("Measure", int(c.Measure), "unknown interest measure")
	}
	if c.OEMode != OEModePaper && c.OEMode != OEModeConservative {
		bad("OEMode", int(c.OEMode), "unknown optimistic-estimate mode")
	}
	for _, a := range c.Attrs {
		if a < 0 {
			bad("Attrs", a, "attribute indices must be >= 0")
			break
		}
	}
	return errors.Join(errs...)
}

// CanonicalKey serializes the result-affecting configuration fields in a
// fixed order, with defaults resolved, so that two configs producing the
// same mining result by construction share a key. Fields that provably do
// not change the result are excluded: Workers (per-level merge order is
// deterministic for any worker count) and the observability sinks
// (Metrics, Trace).
//
// This key — hashed by CanonicalHash — is what the serving layer's result
// cache and singleflight deduplication are addressed by.
func (c Config) CanonicalKey() string {
	c.defaults()
	p := c.pruning()
	var b strings.Builder
	fmt.Fprintf(&b, "alpha=%.17g;delta=%.17g;depth=%d;recursion=%d;topk=%d;",
		c.Alpha, c.Delta, c.MaxDepth, c.MaxRecursion, c.TopK)
	fmt.Fprintf(&b, "measure=%s;oe=%s;", c.Measure, c.OEMode)
	fmt.Fprintf(&b, "prune=%t,%t,%t,%t,%t,%t;",
		p.MinDeviation, p.ExpectedCount, p.ChiSquareOE,
		p.RedundancyCLT, p.PureSpace, p.LookupTable)
	fmt.Fprintf(&b, "skipfilter=%t;recordexplored=%t;attrs=%s",
		c.SkipMeaningfulFilter, c.RecordExploredSpaces, dataset.AttrsKey(c.Attrs))
	// Appended only when set, so every key without the gate is unchanged.
	if c.ExpectedCountGate {
		b.WriteString(";expectedgate=true")
	}
	return b.String()
}

// CanonicalHash is the hex-encoded SHA-256 of CanonicalKey, truncated to
// 16 bytes (32 hex digits) — compact enough for URLs and log lines,
// collision-resistant enough for cache addressing.
func (c Config) CanonicalHash() string {
	sum := sha256.Sum256([]byte(c.CanonicalKey()))
	return hex.EncodeToString(sum[:16])
}
