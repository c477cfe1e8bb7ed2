package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOnlyRefusesAnUnknownName pins that a misspelt -only name, or a
// removed exhibit's (the adaptive study), fails before any experiment
// runs, even beside a known one, and that the refusal lists exactly the
// experiment table.
func TestOnlyRefusesAnUnknownName(t *testing.T) {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	have := "(have " + strings.Join(names, ", ") + ")"
	for only, bad := range map[string]string{"table1,tabel3": "tabel3", "adaptive": "adaptive"} {
		var out bytes.Buffer
		err := run([]string{"-only", only}, &out)
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) || !strings.HasSuffix(err.Error(), have) {
			t.Errorf("-only %s: err %v, want a refusal naming %s and ending %q", only, err, bad, have)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s printed before refusing:\n%s", only, out.String())
		}
	}
}
