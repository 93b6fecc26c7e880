package experiments

import (
	"fmt"

	"repro/internal/fiber"
)

// E22FiberSharing runs the §V-A3 R&D project: a municipal fiber access
// facility shared by competing retail ISPs, compared across the time
// domain (packet scheduling) and the color domain (wavelengths) on the
// exact questions the paper lists — fairness enforcement and
// verification, fault isolation, and incremental upgrades. The
// blast-radius column is structural (fiber.Facility.BlastRadius's
// per-domain count); no scenario injects a fault.
func E22FiberSharing(seed uint64) *Result {
	res := &Result{
		ID:    "E22",
		Title: "municipal fiber: time-domain vs color-domain sharing",
		Claim: "§V-A3: design a fiber access facility supporting higher-level competition; compare packet vs wavelength sharing on fairness, faults, upgrades",
		Columns: []string{
			"total-delivered", "cheater-got", "honest-min", "blast-radius",
		},
	}
	_ = seed // the fluid model is deterministic
	const capacity = 1000.0
	const lambda = 250.0
	mk := func(cheat bool) []*fiber.Tenant {
		demandC := 250.0
		if cheat {
			demandC = 2000
		}
		return []*fiber.Tenant{
			{Name: "isp-a", Entitlement: 0.5, Demand: 600},
			{Name: "isp-b", Entitlement: 0.25, Demand: 300},
			{Name: "isp-c", Entitlement: 0.25, Demand: demandC, Cheats: cheat},
		}
	}
	honestMin := func(f *fiber.Facility) float64 {
		min := capacity
		for _, t := range f.Tenants {
			if !t.Cheats && t.Demand > 0 && t.Delivered < min {
				min = t.Delivered
			}
		}
		return min
	}
	for _, domain := range []fiber.Domain{fiber.TDM, fiber.WDM} {
		for _, scenario := range []string{"entitled", "cheater", "idle-tenant"} {
			var tenants []*fiber.Tenant
			switch scenario {
			case "cheater":
				tenants = mk(true)
			case "idle-tenant":
				tenants = mk(false)
				tenants[1].Demand = 0 // isp-b idle: does capacity backfill?
			default:
				tenants = mk(false)
			}
			f := fiber.New(capacity, domain, lambda, tenants...)
			total := f.Measure()
			cheaterGot := 0.0
			for _, t := range tenants {
				if t.Cheats {
					cheaterGot = t.Delivered
				}
			}
			res.AddRow(fmt.Sprintf("%v %s", domain, scenario),
				total, cheaterGot, honestMin(f), float64(f.BlastRadius()))
		}
	}
	res.Finding = fmt.Sprintf(
		"both domains hold a cheater to its entitlement (tdm %.0f, wdm %.0f of 250) — enforcement works in either; they differ on efficiency (idle-tenant total: tdm %.0f vs wdm %.0f — lambdas don't backfill), fault blast radius (tdm %d tenants vs wdm %d), and upgrade granularity (tdm fractional, wdm per-%.0f-lambda)",
		res.MustGet("tdm cheater", "cheater-got"),
		res.MustGet("wdm cheater", "cheater-got"),
		res.MustGet("tdm idle-tenant", "total-delivered"),
		res.MustGet("wdm idle-tenant", "total-delivered"),
		int(res.MustGet("tdm entitled", "blast-radius")),
		int(res.MustGet("wdm entitled", "blast-radius")),
		lambda)
	return res
}
