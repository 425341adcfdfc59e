package logging

import "testing"

func TestNewLogger(t *testing.T) {
	for _, format := range []string{"", "text", "json"} {
		if _, err := New(format); err != nil {
			t.Errorf("New(%q): %v", format, err)
		}
	}
	if _, err := New("yaml"); err == nil {
		t.Error("New accepted an unknown format")
	}
}
