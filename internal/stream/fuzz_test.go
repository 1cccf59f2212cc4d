package stream

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sdadcs/internal/core"
)

// FuzzMonitorAppend drives a monitor from fuzz bytes. The first three
// bytes pick the window size (1–64), the re-mine cadence (1–window) and
// the number of groups (1–3); every further three bytes are one row over
// testSchema, drawn from small alphabets so values repeat, with NaN
// readings. Each Append must return either its events (nil when no
// re-mine ran) and a nil error, or nil and ErrWindowNotMineable, and
// after every re-mine the mined window and its patterns must match the
// reference built from the fuzzer's own row log.
func FuzzMonitorAppend(f *testing.F) {
	f.Add([]byte{47, 11, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{0, 0, 2, 250, 9, 8, 3, 241, 0, 7, 7, 7, 7, 7, 15})
	f.Add([]byte{5, 2, 0, 1, 1, 1, 1, 1, 9, 2, 2, 2, 2, 2, 10})
	f.Add([]byte{63, 63, 1, 255, 255, 255, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	mining := core.Config{MaxDepth: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		window := 1 + int(data[0])%64
		every := 1 + int(data[1])%window
		groups := 1 + int(data[2])%3
		rows := data[3:]
		if len(rows) > 3*128 { // two wraps of the largest window
			rows = rows[:3*128]
		}
		m, err := NewMonitor(testSchema(), Config{WindowSize: window, MineEvery: every, Mining: mining})
		if err != nil {
			t.Fatalf("window %d every %d: %v", window, every, err)
		}
		ref := newRefLog(testSchema(), window)
		reading := func(b byte) float64 {
			if b >= 240 {
				return math.NaN()
			}
			return float64(b % 16)
		}
		for i := 0; i+3 <= len(rows); i += 3 {
			a, b, c := rows[i], rows[i+1], rows[i+2]
			cont := []float64{reading(a), reading(b) / 4}
			cat := []string{fmt.Sprintf("m%d", c%4), []string{"day", "night"}[c>>2&1]}
			group := fmt.Sprintf("g%d", int(c>>3)%groups)
			before := m.Mines()
			events, err := m.Append(cont, cat, group)
			ref.add(cont, cat, group)
			label := fmt.Sprintf("window %d every %d row %d", window, every, i/3)
			switch {
			case errors.Is(err, ErrWindowNotMineable):
				if events != nil {
					t.Fatalf("%s: %d events with ErrWindowNotMineable", label, len(events))
				}
				if ref.dataset() != nil {
					t.Fatalf("%s: mineable window reported unmineable", label)
				}
			case err != nil:
				t.Fatalf("%s: %v", label, err)
			case m.Mines() == before:
				if events != nil {
					t.Fatalf("%s: %d events without a re-mine", label, len(events))
				}
			default:
				checkRemine(t, label, m, ref, mining)
			}
		}
	})
}
