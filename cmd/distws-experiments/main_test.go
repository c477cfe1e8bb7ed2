package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOnlyRefusesAnUnknownName pins that a misspelt -only name fails
// before any experiment runs, even beside a known one.
func TestOnlyRefusesAnUnknownName(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-only", "table1,tabel3"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"tabel3"`) {
		t.Fatalf("err %v, want a refusal naming tabel3", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed before refusing:\n%s", out.String())
	}
}
