// Command policyc parses, checks, and evaluates TPL policy documents
// (see internal/policy).
//
// Usage:
//
//	policyc check FILE [-vocab port,role,...]
//	policyc eval FILE attr=value ...
//
// check parses the document and, with -vocab, reports attributes outside
// the ontology (tussles the enforcement point cannot capture). eval
// compiles the document and runs it on the policy VM under
// policy.DefaultBudget against an environment built from attr=value
// arguments: finite decimal values bind as numbers, true and false as
// booleans, anything else as a string.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/policy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one policyc command and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		return usage(stderr)
	}
	cmd, file := args[0], args[1]
	src, err := os.ReadFile(file)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	doc, err := policy.Parse(string(src))
	if err != nil {
		return fail(stderr, "%v", err)
	}
	switch cmd {
	case "check":
		fs := flag.NewFlagSet("check", flag.ContinueOnError)
		fs.SetOutput(stderr)
		vocab := fs.String("vocab", "", "comma-separated attribute ontology")
		if err := fs.Parse(args[2:]); err != nil {
			return 2
		}
		fmt.Fprintf(stdout, "policy %q: %d rules, default %v\n", doc.Name, len(doc.Rules), defaultOf(doc))
		fmt.Fprintf(stdout, "attributes referenced: %s\n", strings.Join(doc.Attributes(), ", "))
		if *vocab != "" {
			out := policy.Analyze(doc, strings.Split(*vocab, ","))
			if len(out) != 0 {
				fmt.Fprintf(stdout, "ontology: OUTSIDE vocabulary: %s\n", strings.Join(out, ", "))
				return 2
			}
			fmt.Fprintln(stdout, "ontology: all attributes within vocabulary")
		}
	case "eval":
		env := policy.Env{}
		for _, kv := range args[2:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fail(stderr, "bad binding %q (want attr=value)", kv)
			}
			env[parts[0]] = parseValue(parts[1])
		}
		cd, err := policy.CompileDocument(doc)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		budget := policy.DefaultBudget()
		d, errs := cd.Evaluate(env, &budget)
		for _, e := range errs {
			fmt.Fprintf(stderr, "warning: %v\n", e)
		}
		where := d.Rule
		if d.Default {
			where = "(default)"
		}
		fmt.Fprintf(stdout, "decision: %v", d.Action.Kind)
		switch {
		case d.Action.Reason != "":
			fmt.Fprintf(stdout, " %q", d.Action.Reason)
		case d.Action.What != "":
			fmt.Fprintf(stdout, " %s", d.Action.What)
		case d.Action.Kind == policy.Price:
			fmt.Fprintf(stdout, " %g", d.Action.Amount)
		}
		fmt.Fprintf(stdout, "  [rule %s]\n", where)
		if !d.Permitted() {
			return 1
		}
	default:
		return usage(stderr)
	}
	return 0
}

func defaultOf(doc *policy.Document) string {
	if doc.HasDefault {
		return doc.Default.Kind.String()
	}
	return "deny (implicit)"
}

// parseValue binds s as a number only when it is a finite decimal:
// strconv.ParseFloat alone would also turn NaN, Inf and hex spellings
// such as "Nan" or "0x1p4" into numbers.
func parseValue(s string) policy.Value {
	if strings.Trim(s, "0123456789+-.eE") == "" {
		if n, err := strconv.ParseFloat(s, 64); err == nil {
			return policy.Num(n)
		}
	}
	if s == "true" || s == "false" {
		return policy.Bool(s == "true")
	}
	return policy.Str(s)
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: policyc check FILE [-vocab a,b,...] | policyc eval FILE attr=value ...")
	return 64
}

func fail(stderr io.Writer, format string, args ...interface{}) int {
	fmt.Fprintf(stderr, "policyc: "+format+"\n", args...)
	return 1
}
