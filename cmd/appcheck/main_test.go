package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExampleDesignParsesAndPasses(t *testing.T) {
	var df designFile
	if err := json.Unmarshal([]byte(exampleDesign), &df); err != nil {
		t.Fatalf("template JSON invalid: %v", err)
	}
	app, err := toAppDesign(&df)
	if err != nil {
		t.Fatal(err)
	}
	report := core.CheckGuidelines(app)
	if report.Score() != 1 {
		t.Fatalf("template design scores %v — the shipped example must pass", report.Score())
	}
}

func TestToAppDesignUnknownChooser(t *testing.T) {
	df := &designFile{Name: "x"}
	df.Choices = append(df.Choices, struct {
		Name         string `json:"name"`
		Chooser      string `json:"chooser"`
		Alternatives int    `json:"alternatives"`
		Visible      bool   `json:"visible"`
		CostExposed  bool   `json:"cost_exposed"`
	}{Name: "c", Chooser: "alien", Alternatives: 2})
	if _, err := toAppDesign(df); err == nil {
		t.Fatal("unknown chooser accepted")
	}
}

func TestToAppDesignMapsFields(t *testing.T) {
	src := `{
        "name": "t",
        "choices": [{"name": "c", "chooser": "isp", "alternatives": 3, "visible": true, "cost_exposed": false}],
        "mechanisms": [{"name": "m", "space": "qos", "couples": ["apps"], "visible": false}],
        "third_parties": [{"name": "tp", "selectable": false}],
        "needs_value_flow": true
    }`
	var df designFile
	if err := json.Unmarshal([]byte(src), &df); err != nil {
		t.Fatal(err)
	}
	app, err := toAppDesign(&df)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Choices) != 1 || app.Choices[0].Chooser != core.ISP || app.Choices[0].Alternatives != 3 {
		t.Fatalf("choices = %+v", app.Choices)
	}
	if len(app.Mechanisms) != 1 || len(app.Mechanisms[0].Couples) != 1 {
		t.Fatalf("mechanisms = %+v", app.Mechanisms[0])
	}
	if len(app.ThirdParties) != 1 || app.ThirdParties[0].Selectable {
		t.Fatalf("third parties = %+v", app.ThirdParties)
	}
	if !app.NeedsValueFlow || app.HasValueFlow {
		t.Fatal("value-flow flags wrong")
	}
}

// The template -example prints is a design appcheck itself passes.
func TestRunExampleRoundTrip(t *testing.T) {
	var tmpl, errb bytes.Buffer
	if code := run([]string{"-example"}, &tmpl, &errb); code != 0 || tmpl.String() != exampleDesign {
		t.Fatalf("-example: exit %d, stderr %q, stdout %q", code, errb.String(), tmpl.String())
	}
	path := filepath.Join(t.TempDir(), "design.json")
	if err := os.WriteFile(path, tmpl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 || !strings.Contains(out.String(), "(100%)") {
		t.Fatalf("audit of the template: exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
}
