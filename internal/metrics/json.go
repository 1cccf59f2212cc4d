package metrics

import (
	"encoding/json"
	"io"
)

// WriteJSON marshals the recorder's snapshot (indented) to w. A nil
// recorder writes the empty snapshot.
func WriteJSON(w io.Writer, r *Recorder) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
