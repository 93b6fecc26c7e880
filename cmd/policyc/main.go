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
	"os"
	"strconv"
	"strings"

	"repro/internal/policy"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, file := os.Args[1], os.Args[2]
	src, err := os.ReadFile(file)
	if err != nil {
		fatal("%v", err)
	}
	doc, err := policy.Parse(string(src))
	if err != nil {
		fatal("%v", err)
	}
	switch cmd {
	case "check":
		fs := flag.NewFlagSet("check", flag.ExitOnError)
		vocab := fs.String("vocab", "", "comma-separated attribute ontology")
		fs.Parse(os.Args[3:])
		fmt.Printf("policy %q: %d rules, default %v\n", doc.Name, len(doc.Rules), defaultOf(doc))
		fmt.Printf("attributes referenced: %s\n", strings.Join(doc.Attributes(), ", "))
		if *vocab != "" {
			out := policy.Analyze(doc, strings.Split(*vocab, ","))
			if len(out) == 0 {
				fmt.Println("ontology: all attributes within vocabulary")
			} else {
				fmt.Printf("ontology: OUTSIDE vocabulary: %s\n", strings.Join(out, ", "))
				os.Exit(2)
			}
		}
	case "eval":
		env := policy.Env{}
		for _, kv := range os.Args[3:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				fatal("bad binding %q (want attr=value)", kv)
			}
			env[parts[0]] = parseValue(parts[1])
		}
		cd, err := policy.CompileDocument(doc)
		if err != nil {
			fatal("%v", err)
		}
		budget := policy.DefaultBudget()
		d, errs := cd.Evaluate(env, &budget)
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "warning: %v\n", e)
		}
		where := d.Rule
		if d.Default {
			where = "(default)"
		}
		fmt.Printf("decision: %v", d.Action.Kind)
		switch {
		case d.Action.Reason != "":
			fmt.Printf(" %q", d.Action.Reason)
		case d.Action.What != "":
			fmt.Printf(" %s", d.Action.What)
		case d.Action.Kind == policy.Price:
			fmt.Printf(" %g", d.Action.Amount)
		}
		fmt.Printf("  [rule %s]\n", where)
		if !d.Permitted() {
			os.Exit(1)
		}
	default:
		usage()
	}
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

func usage() {
	fmt.Fprintln(os.Stderr, "usage: policyc check FILE [-vocab a,b,...] | policyc eval FILE attr=value ...")
	os.Exit(64)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "policyc: "+format+"\n", args...)
	os.Exit(1)
}
