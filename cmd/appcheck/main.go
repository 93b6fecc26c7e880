// Command appcheck audits an application design against the paper's
// application design guidelines (§VI-A: "we should generate 'application
// design guidelines' that would help designers avoid pitfalls, and deal
// with the tussles of success").
//
// Usage:
//
//	appcheck design.json
//	appcheck -example        # print a template design and exit
//
// The input is a JSON description of the design's choice points,
// mechanisms, third parties, and properties; the output is a pass/fail
// report per guideline with the paper's advice attached, and a non-zero
// exit status when any guideline fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// designFile is the JSON schema for an application design.
type designFile struct {
	Name    string `json:"name"`
	Choices []struct {
		Name         string `json:"name"`
		Chooser      string `json:"chooser"` // user|isp|government|rights-holder|content-provider|private-network
		Alternatives int    `json:"alternatives"`
		Visible      bool   `json:"visible"`
		CostExposed  bool   `json:"cost_exposed"`
	} `json:"choices"`
	Mechanisms []struct {
		Name    string   `json:"name"`
		Couples []string `json:"couples,omitempty"`
		Visible bool     `json:"visible"`
	} `json:"mechanisms"`
	ThirdParties []struct {
		Name       string `json:"name"`
		Selectable bool   `json:"selectable"`
	} `json:"third_parties"`
	UserControlsNetworkFeatures bool `json:"user_controls_network_features"`
	IntermediariesVisible       bool `json:"intermediaries_visible"`
	EndToEndEncryption          bool `json:"end_to_end_encryption"`
	NeedsValueFlow              bool `json:"needs_value_flow"`
	HasValueFlow                bool `json:"has_value_flow"`
}

var kinds = map[string]core.Kind{
	"user": core.User, "isp": core.ISP, "government": core.Government,
	"rights-holder": core.RightsHolder, "content-provider": core.ContentProvider,
	"private-network": core.PrivateNetwork,
}

func toAppDesign(df *designFile) (*core.AppDesign, error) {
	app := &core.AppDesign{
		Design:                      core.Design{Name: df.Name},
		UserControlsNetworkFeatures: df.UserControlsNetworkFeatures,
		IntermediariesVisible:       df.IntermediariesVisible,
		EndToEndEncryption:          df.EndToEndEncryption,
		NeedsValueFlow:              df.NeedsValueFlow,
		HasValueFlow:                df.HasValueFlow,
	}
	for _, c := range df.Choices {
		kind, ok := kinds[c.Chooser]
		if !ok {
			return nil, fmt.Errorf("choice %q: unknown chooser %q", c.Name, c.Chooser)
		}
		app.Choices = append(app.Choices, core.ChoicePoint{
			Chooser: kind, Alternatives: c.Alternatives,
			Visible: c.Visible, CostExposed: c.CostExposed,
		})
	}
	for _, m := range df.Mechanisms {
		mech := &core.Mechanism{Name: m.Name, Visible: m.Visible}
		for _, sp := range m.Couples {
			mech.Couples = append(mech.Couples, core.Space(sp))
		}
		app.Mechanisms = append(app.Mechanisms, mech)
	}
	for _, tp := range df.ThirdParties {
		app.ThirdParties = append(app.ThirdParties, core.ThirdParty{Selectable: tp.Selectable})
	}
	return app, nil
}

const exampleDesign = `{
  "name": "example-mail-app",
  "choices": [
    {"name": "smtp-server", "chooser": "user", "alternatives": 8, "visible": true, "cost_exposed": true},
    {"name": "pop-server", "chooser": "user", "alternatives": 4, "visible": true, "cost_exposed": true}
  ],
  "mechanisms": [
    {"name": "server-selection", "visible": true},
    {"name": "spam-filtering", "visible": true}
  ],
  "third_parties": [
    {"name": "reputation-service", "selectable": true}
  ],
  "user_controls_network_features": true,
  "intermediaries_visible": true,
  "end_to_end_encryption": true,
  "needs_value_flow": false,
  "has_value_flow": false
}
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run audits one design file, or prints the template, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("appcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	example := fs.Bool("example", false, "print a template design and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *example {
		fmt.Fprint(stdout, exampleDesign)
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: appcheck design.json | appcheck -example")
		return 64
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, "%v", err)
	}
	var df designFile
	if err := json.Unmarshal(raw, &df); err != nil {
		return fail(stderr, "parse %s: %v", fs.Arg(0), err)
	}
	app, err := toAppDesign(&df)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	report := core.CheckGuidelines(app)
	fmt.Fprintf(stdout, "design %q: %d/%d guidelines satisfied (%.0f%%)\n\n",
		app.Name, report.Passed(), len(report.Findings), report.Score()*100)
	failed := 0
	for _, f := range report.Findings {
		mark := "PASS"
		if !f.Passed {
			mark = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "  [%s] %-24s %s\n", mark, f.Rule, f.Detail)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, "appcheck: "+format+"\n", args...)
	return 1
}
