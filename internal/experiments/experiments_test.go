package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/transport/multipath"
)

const testSeed = 42

func TestE1IsolationConfinesDamage(t *testing.T) {
	r := E1NamingIsolation(testSeed)
	if c := r.MustGet("isolated markUse=50%", "collateral"); c != 0 {
		t.Fatalf("isolated collateral = %v, want 0", c)
	}
	if c := r.MustGet("entangled markUse=50%", "collateral"); c == 0 {
		t.Fatal("entangled design showed no collateral damage")
	}
	if a := r.MustGet("isolated markUse=50%", "machine-avail"); a != 1 {
		t.Fatalf("isolated machine availability = %v, want 1", a)
	}
	ea := r.MustGet("entangled markUse=50%", "machine-avail")
	if ea >= 1 {
		t.Fatalf("entangled machine availability = %v, should be degraded", ea)
	}
}

func TestE2ExplicitToSSurvivesEncryption(t *testing.T) {
	r := E2QoSIsolation(testSeed)
	if m := r.MustGet("explicit-tos enc=50%", "misclassified"); m != 0 {
		t.Fatalf("explicit classifier misclassified %v", m)
	}
	if m := r.MustGet("by-port enc=50%", "misclassified"); m == 0 {
		t.Fatal("port classifier should fail on encrypted flows")
	}
	if d := r.MustGet("by-port enc=50%", "distortion-pressure"); d == 0 {
		t.Fatal("no distortion pressure recorded")
	}
	// VoIP quality under the port design degrades relative to explicit.
	portScore := r.MustGet("by-port enc=50%", "voip-score")
	tosScore := r.MustGet("explicit-tos enc=50%", "voip-score")
	if portScore >= tosScore {
		t.Fatalf("voip score: by-port %v should trail explicit %v", portScore, tosScore)
	}
}

func TestE3LockinRaisesPrices(t *testing.T) {
	r := E3ProviderLockin(testSeed)
	for _, n := range []string{"entrants=2", "entrants=4"} {
		locked := r.MustGet(n+" static-addrs", "mean-price")
		free := r.MustGet(n+" dhcp+dyn-dns", "mean-price")
		if locked <= free {
			t.Fatalf("%s: locked price %v should exceed free price %v", n, locked, free)
		}
	}
	if s := r.MustGet("entrants=4 dhcp+dyn-dns", "consumer-surplus"); s <= r.MustGet("entrants=4 static-addrs", "consumer-surplus") {
		t.Fatal("easy switching should raise consumer surplus")
	}
}

func TestE4TunnelsUndermineBan(t *testing.T) {
	r := E4ValuePricing(testSeed)
	if tr := r.MustGet("monopoly tunnels", "tunnel-rate"); tr == 0 {
		t.Fatal("no tunneling recorded")
	}
	if r.MustGet("monopoly tunnels", "isp-revenue") >= r.MustGet("monopoly no-tunnels", "isp-revenue") {
		t.Fatal("tunneling should cut the banning ISP's revenue")
	}
	if r.MustGet("duopoly no-tunnels", "isp-revenue") >= r.MustGet("monopoly no-tunnels", "isp-revenue") {
		t.Fatal("competition should cut the banning ISP's revenue further")
	}
}

func TestE5OpenAccessLowersPrices(t *testing.T) {
	r := E5OpenAccess(testSeed)
	if r.MustGet("entrants=5", "retail-price") >= r.MustGet("entrants=0", "retail-price") {
		t.Fatal("open access should lower retail prices")
	}
	if r.MustGet("entrants=5", "consumer-surplus") <= r.MustGet("entrants=0", "consumer-surplus") {
		t.Fatal("open access should raise consumer surplus")
	}
	if r.MustGet("entrants=5", "facility-profit") >= r.MustGet("entrants=0", "facility-profit") {
		t.Fatal("the paper's caveat: open access should cost the facility investor")
	}
}

func TestE6PaymentUnlocksSourceRouting(t *testing.T) {
	r := E6RoutingControl(testSeed)
	if c := r.MustGet("provider-control", "choice-exercised"); c != 0 {
		t.Fatalf("provider control exercised choice = %v, want 0", c)
	}
	paid := r.MustGet("srcroute paid", "choice-exercised")
	unpaid := r.MustGet("srcroute unpaid", "choice-exercised")
	if paid <= unpaid {
		t.Fatalf("paid choice %v should exceed unpaid %v", paid, unpaid)
	}
	if rev := r.MustGet("srcroute paid", "voucher-revenue"); rev <= 0 {
		t.Fatal("no voucher revenue flowed")
	}
	if d := r.MustGet("srcroute paid", "delivery"); d < 0.9 {
		t.Fatalf("paid srcroute delivery = %v", d)
	}
}

func TestE7TrustFirewallDominates(t *testing.T) {
	r := E7TrustFirewall(testSeed)
	for _, frac := range []string{"attackers=10%", "attackers=30%"} {
		portAttacks := r.MustGet("port-fw "+frac, "attacks-admitted")
		trustAttacks := r.MustGet("trust-fw "+frac, "attacks-admitted")
		if trustAttacks >= portAttacks {
			t.Fatalf("%s: trust fw admitted %v attacks vs port fw %v", frac, trustAttacks, portAttacks)
		}
		portBlocked := r.MustGet("port-fw "+frac, "legit-blocked")
		trustBlocked := r.MustGet("trust-fw "+frac, "legit-blocked")
		if trustBlocked >= portBlocked {
			t.Fatalf("%s: trust fw blocked %v legit vs port fw %v", frac, trustBlocked, portBlocked)
		}
	}
}

func TestE8VisibleAnonymityCutsFraud(t *testing.T) {
	r := E8Anonymity(testSeed)
	visFraud := r.MustGet("visible-anon anon=50%", "fraud-suffered")
	hidFraud := r.MustGet("hidden-anon anon=50%", "fraud-suffered")
	if visFraud >= hidFraud {
		t.Fatalf("visible fraud %v should be below hidden fraud %v", visFraud, hidFraud)
	}
	// Visible anonymity means anonymous interactions are refused.
	if a := r.MustGet("visible-anon anon=50%", "anon-completed"); a != 0 {
		t.Fatalf("visible anonymous completed = %v", a)
	}
	if a := r.MustGet("hidden-anon anon=50%", "anon-completed"); a == 0 {
		t.Fatal("hidden anonymous senders should get through")
	}
}

func TestE9FeatureDensityBlocksNewApps(t *testing.T) {
	r := E9EndToEnd(testSeed)
	clean := r.MustGet("feature-density=0%", "newapp-success")
	dense := r.MustGet("feature-density=75%", "newapp-success")
	if clean < 0.95 {
		t.Fatalf("transparent network new-app success = %v", clean)
	}
	if dense >= clean {
		t.Fatalf("feature density should hurt new apps: %v vs %v", dense, clean)
	}
	// Mature web keeps working in all configurations.
	for _, row := range r.Rows {
		if v := row.Values[2]; v < 0.95 {
			t.Fatalf("%s: web delivery %v", row.Label, v)
		}
	}
}

func TestE10CompetitionDisciplinesBlocking(t *testing.T) {
	r := E10Encryption(testSeed)
	// Monopoly: blocking costs little (nowhere to go).
	monoBlockSubs := r.MustGet("monopoly block-crypto", "blocker-subscribers")
	if monoBlockSubs == 0 {
		t.Fatal("monopoly blocker lost all subscribers — users had nowhere to go")
	}
	// Competition: blocking loses the encryption-valuing half.
	compCarry := r.MustGet("competitive carry", "blocker-profit")
	compBlock := r.MustGet("competitive block-crypto", "blocker-profit")
	if compBlock >= compCarry {
		t.Fatalf("blocking should be unprofitable under competition: %v vs %v", compBlock, compCarry)
	}
	if c := r.MustGet("monopoly block-crypto", "encrypted-carried"); c != 0 {
		t.Fatalf("monopoly block still carried %v encrypted", c)
	}
	if c := r.MustGet("competitive block-crypto", "encrypted-carried"); c < 0.9 {
		t.Fatalf("competition should keep encrypted traffic carried: %v", c)
	}
}

func TestE11BothMechanismsRequired(t *testing.T) {
	r := E11QoSDeployment(testSeed)
	both := r.MustGet("valueFlow=true choice=true", "deploy-share")
	neither := r.MustGet("valueFlow=false choice=false", "deploy-share")
	onlyValue := r.MustGet("valueFlow=true choice=false", "deploy-share")
	onlyChoice := r.MustGet("valueFlow=false choice=true", "deploy-share")
	if both <= neither || both <= onlyValue || both <= onlyChoice {
		t.Fatalf("deployment shares: both=%v neither=%v value=%v choice=%v",
			both, neither, onlyValue, onlyChoice)
	}
	if served := r.MustGet("valueFlow=true choice=true", "qos-served"); served == 0 {
		t.Fatal("no QoS demand served even in the working cell")
	}
}

func TestE12EntryPreventsFreezing(t *testing.T) {
	r := E12ActorChurn(testSeed)
	if f := r.MustGet("entry=0.0", "frozen"); f != 1 {
		t.Fatal("no-entry network should freeze")
	}
	if f := r.MustGet("entry=0.6", "frozen"); f != 0 {
		t.Fatal("high-entry network should not freeze")
	}
	if r.MustGet("entry=0.6", "change-success") <= r.MustGet("entry=0.0", "change-success") {
		t.Fatal("churn should make change easier")
	}
}

func TestE13TruthfulnessGap(t *testing.T) {
	r := E13Mechanisms(testSeed)
	if g := r.MustGet("vickrey-auction", "lying-gain"); g > 1e-9 {
		t.Fatalf("vickrey lying gain = %v", g)
	}
	if g := r.MustGet("first-price-auction", "lying-gain"); g <= 0 {
		t.Fatal("first-price should reward lying")
	}
	// Conflict cycles, coordination converges.
	if c := r.MustGet("matching-pennies", "br-converges"); c != 0 {
		t.Fatal("matching pennies should cycle")
	}
	if c := r.MustGet("stag-hunt", "br-converges"); c != 1 {
		t.Fatal("stag hunt should converge")
	}
}

func TestE14OverlayRestoresReachability(t *testing.T) {
	r := E14Overlay(testSeed)
	for _, frac := range []string{"block=20%", "block=40%"} {
		under := r.MustGet("underlay-only "+frac, "reachability")
		over := r.MustGet("with-overlay "+frac, "reachability")
		if over <= under {
			t.Fatalf("%s: overlay reachability %v should exceed underlay %v", frac, over, under)
		}
	}
	if b := r.MustGet("with-overlay block=40%", "uncompensated-bytes"); b <= 0 {
		t.Fatal("overlay should create uncompensated transit")
	}
	if b := r.MustGet("underlay-only block=40%", "uncompensated-bytes"); b != 0 {
		t.Fatal("underlay-only should have no relayed bytes")
	}
}

func TestE15MulticastTipping(t *testing.T) {
	r := E15Multicast(testSeed)
	if s := r.MustGet("no-value-flow seed=10%", "final-deploy-share"); s > 0.01 {
		t.Fatalf("unfunded multicast share = %v", s)
	}
	if s := r.MustGet("value-flow seed=10%", "final-deploy-share"); s > 0.01 {
		t.Fatalf("below-tipping-point multicast share = %v, should die", s)
	}
	if s := r.MustGet("value-flow seed=75%", "final-deploy-share"); s < 0.99 {
		t.Fatalf("past-tipping-point share = %v, should take off", s)
	}
}

func TestE16PathVectorHidesChoices(t *testing.T) {
	r := E16Visibility(testSeed)
	if r.MustGet("link-state", "reasons-visible") != 1 || r.MustGet("path-vector", "reasons-visible") != 0 {
		t.Fatal("reasons visibility wrong")
	}
	if r.MustGet("link-state", "change-observable") != 1 {
		t.Fatal("link-state changes should be globally observable")
	}
	if o := r.MustGet("path-vector", "change-observable"); o >= 0.5 {
		t.Fatalf("path-vector change observability = %v, should be small", o)
	}
}

func TestE17FairQueueingBoundsCheaters(t *testing.T) {
	r := E17Congestion(testSeed)
	fifoShare := r.MustGet("shared-fifo cheaters=3", "cheater-share")
	fqShare := r.MustGet("fair-queue cheaters=3", "cheater-share")
	if fifoShare < 0.6 {
		t.Fatalf("FIFO cheater share = %v, cheaters should dominate", fifoShare)
	}
	if fqShare >= fifoShare/1.5 {
		t.Fatalf("FQ share %v should be well below FIFO %v", fqShare, fifoShare)
	}
	// Compliant goodput collapse on FIFO, protection under FQ.
	if r.MustGet("shared-fifo cheaters=3", "compliant-goodput") >= r.MustGet("fair-queue cheaters=3", "compliant-goodput") {
		t.Fatal("fair queueing should protect compliant flows")
	}
	// With no cheaters both disciplines are fair.
	if j := r.MustGet("shared-fifo cheaters=0", "jain"); j < 0.95 {
		t.Fatalf("clean FIFO Jain = %v", j)
	}
}

func TestE18RobustFloodingContainsLiars(t *testing.T) {
	r := E18Byzantine(testSeed)
	trusting := r.MustGet("trust-all liars=2", "delivery")
	robust := r.MustGet("signed-two-sided liars=2", "delivery")
	if robust <= trusting {
		t.Fatalf("robust delivery %v should beat trusting %v under attack", robust, trusting)
	}
	if a := r.MustGet("trust-all liars=2", "attracted-to-liar"); a == 0 {
		t.Fatal("liars attracted nothing under trusting flooding")
	}
	if a := r.MustGet("signed-two-sided liars=2", "attracted-to-liar"); a >= r.MustGet("trust-all liars=2", "attracted-to-liar") {
		t.Fatal("attestation should reduce attraction")
	}
	// Clean network: both modes deliver everything.
	if d := r.MustGet("trust-all liars=0", "delivery"); d < 0.99 {
		t.Fatalf("clean trusting delivery = %v", d)
	}
	if d := r.MustGet("signed-two-sided liars=0", "delivery"); d < 0.99 {
		t.Fatalf("clean robust delivery = %v", d)
	}
}

func TestE19RedirectionAndTunnel(t *testing.T) {
	r := E19MailChoice(testSeed)
	if v := r.MustGet("free-choice", "via-chosen-server"); v < 0.95 {
		t.Fatalf("free choice via chosen = %v", v)
	}
	if v := r.MustGet("isp-redirect", "via-chosen-server"); v != 0 {
		t.Fatalf("redirect via chosen = %v, want 0", v)
	}
	if v := r.MustGet("redirect+tunnel", "via-chosen-server"); v < 0.95 {
		t.Fatalf("tunnel via chosen = %v", v)
	}
	// Spam experienced: redirect worse than choice.
	if r.MustGet("isp-redirect", "inbox-spam-rate") <= r.MustGet("free-choice", "inbox-spam-rate") {
		t.Fatal("redirection to the poor filter should raise inbox spam")
	}
}

func TestE20CoverDistributionDecides(t *testing.T) {
	r := E20Steganography(testSeed)
	zero := r.MustGet("padding zero-cover", "suspicion")
	random := r.MustGet("padding random-cover", "suspicion")
	if zero < 0.9 {
		t.Fatalf("zero-cover suspicion = %v, should be glaring", zero)
	}
	if random > 0.2 {
		t.Fatalf("random-cover suspicion = %v, should be invisible", random)
	}
	// Timing channel degrades with jitter.
	if r.MustGet("timing jitter=4.000ms", "ber") <= r.MustGet("timing jitter=200.000us", "ber") {
		t.Fatal("jitter should raise BER")
	}
	// The detection game is pure conflict: no pure equilibrium.
	if pure := r.MustGet("detection-game", "suspicion"); pure != 0 {
		t.Fatalf("detection game has %v pure equilibria", pure)
	}
}

func TestE21EndToEndCompletesEverywhere(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		r := E21EndToEndReliability(seed)
		for _, row := range r.Rows {
			if row.Values[0] != 1 {
				t.Fatalf("seed %d: %s did not complete", seed, row.Label)
			}
		}
		if !strings.HasPrefix(r.Finding, "every configuration completes") {
			t.Fatalf("seed %d: finding does not report full completion: %q", seed, r.Finding)
		}
		// Link ARQ reduces end-to-end retransmissions and transfer time
		// at high loss.
		if r.MustGet("hop-by-hop+e2e loss=40%", "e2e-retx") >= r.MustGet("e2e-only loss=40%", "e2e-retx") {
			t.Fatalf("seed %d: link ARQ should cut e2e retransmissions", seed)
		}
		if r.MustGet("hop-by-hop+e2e loss=40%", "elapsed-ms") >= r.MustGet("e2e-only loss=40%", "elapsed-ms") {
			t.Fatalf("seed %d: link ARQ should cut transfer time", seed)
		}
		// And it performs local work to do so.
		if r.MustGet("hop-by-hop+e2e loss=40%", "local-resends") == 0 {
			t.Fatalf("seed %d: no local resends recorded", seed)
		}
		// The e2e-only design does no in-network work at all.
		if r.MustGet("e2e-only loss=40%", "local-resends") != 0 {
			t.Fatalf("seed %d: e2e-only design shows local resends", seed)
		}
		// The completion clause is read from the rows, not asserted.
		r.Rows[4].Values[0] = 0
		if got, want := completionClause(r), "only 5 of 6 configurations complete"; got != want {
			t.Fatalf("seed %d: completion clause with a failed row = %q, want %q", seed, got, want)
		}
	}
}

func TestE22FiberDomains(t *testing.T) {
	r := E22FiberSharing(testSeed)
	// Enforcement: the cheater is near its 250 entitlement either way.
	if v := r.MustGet("tdm cheater", "cheater-got"); v > 300 {
		t.Fatalf("tdm cheater got %v", v)
	}
	if v := r.MustGet("wdm cheater", "cheater-got"); v != 250 {
		t.Fatalf("wdm cheater got %v", v)
	}
	// Efficiency: TDM backfills idle capacity, WDM wastes it.
	if r.MustGet("tdm idle-tenant", "total-delivered") <= r.MustGet("wdm idle-tenant", "total-delivered") {
		t.Fatal("TDM should beat WDM with an idle tenant")
	}
	// Fault isolation: WDM's blast radius is one tenant.
	if r.MustGet("wdm entitled", "blast-radius") != 1 || r.MustGet("tdm entitled", "blast-radius") != 3 {
		t.Fatal("blast radii wrong")
	}
	// Honest tenants never starved in any scenario.
	for _, row := range r.Rows {
		if row.Values[2] <= 0 {
			t.Fatalf("%s: honest-min %v", row.Label, row.Values[2])
		}
	}
}

func TestE23MechanismBoundsPolicy(t *testing.T) {
	r := E23PolicyMechanism(testSeed)
	// Coverage grows with vocabulary...
	if r.MustGet("ports-only", "expressible") >= r.MustGet("packet-fields", "expressible") {
		t.Fatal("richer vocabulary should express more")
	}
	if r.MustGet("packet-fields", "expressible") >= r.MustGet("packet+identity", "expressible") {
		t.Fatal("identity attributes should express more")
	}
	// ...but never reaches 1: some tussle is always outside.
	if r.MustGet("packet+identity", "expressible") >= 1 {
		t.Fatal("no packet ontology should express content/intent policies")
	}
	if r.MustGet("packet+identity", "residual") < 3 {
		t.Fatal("the out-of-ontology catalogue entries should remain residual")
	}
}

func TestE24DelegationProtectsWeakHosts(t *testing.T) {
	r := E24DelegatedControls(testSeed)
	endNode := r.MustGet("end-node patched=30%", "compromised")
	delegated := r.MustGet("delegated-fw patched=30%", "compromised")
	if delegated >= endNode {
		t.Fatalf("delegated fw compromised %v vs end-node %v", delegated, endNode)
	}
	if delegated != 0 {
		t.Fatalf("delegated firewall leaked %v attacks", delegated)
	}
	// Good patching narrows the gap but end-node alone still leaks.
	if r.MustGet("end-node patched=90%", "compromised") == 0 {
		t.Fatal("variable host quality should still leak under end-node-only controls")
	}
	// Legitimate traffic is never collateral damage in any design: one
	// legitimate interaction per host, all served.
	for _, row := range r.Rows {
		if row.Values[2] != 200 {
			t.Fatalf("%s: legit served %v of 200", row.Label, row.Values[2])
		}
	}
}

func TestE25MultihomingSurvivesUpstreamFailure(t *testing.T) {
	r := E25Multihoming(testSeed)
	if r.MustGet("single-homed", "delivery-healthy") != 1 || r.MustGet("dual-homed", "delivery-healthy") != 1 {
		t.Fatal("healthy reachability wrong")
	}
	if r.MustGet("single-homed", "delivery-failed-upstream") != 0 {
		t.Fatal("single-homed host should be cut off")
	}
	if r.MustGet("dual-homed", "delivery-failed-upstream") != 1 {
		t.Fatal("dual-homed host should survive")
	}
}

func TestE26IntegratedSchemeAvoidsDistortion(t *testing.T) {
	r := E26OverlayVsIntegrated(testSeed)
	slow := r.MustGet("provider-default", "latency-ms")
	if r.MustGet("overlay", "latency-ms") >= slow || r.MustGet("srcroute+payment", "latency-ms") >= slow {
		t.Fatal("both schemes should beat the provider default latency")
	}
	if r.MustGet("overlay", "user-choice") < 0.99 || r.MustGet("srcroute+payment", "user-choice") < 0.99 {
		t.Fatal("both schemes should exercise the user's choice")
	}
	if r.MustGet("overlay", "provider-revenue") != 0 {
		t.Fatal("overlay should pay providers nothing")
	}
	if r.MustGet("srcroute+payment", "provider-revenue") <= 0 {
		t.Fatal("integrated scheme should compensate providers")
	}
	if r.MustGet("overlay", "uncompensated-bytes") <= 0 {
		t.Fatal("overlay should show uncompensated transit")
	}
	if r.MustGet("srcroute+payment", "uncompensated-bytes") != 0 {
		t.Fatal("integrated scheme should relay nothing uncompensated")
	}
}

func TestE27MultihomingAndOverlayBeatSingleHomed(t *testing.T) {
	r := E27Availability(testSeed)
	single := r.MustGet("single-homed", "availability")
	multi := r.MustGet("multi-address", "availability")
	over := r.MustGet("overlay-failover", "availability")
	if !(single < over && over < multi) {
		t.Fatalf("availability ordering wrong: single=%v overlay=%v multi=%v", single, over, multi)
	}
	if multi < 0.95 {
		t.Fatalf("multi-address should ride out every fault, got %v", multi)
	}
	if r.MustGet("single-homed", "ls-reconv-ms") <= 0 {
		t.Fatal("link-state shadow instance measured no reconvergence time")
	}
	if r.MustGet("single-homed", "route-churn") <= 0 {
		t.Fatal("path-vector reconvergence produced no route churn")
	}
}

func TestE28GoldSurvivesDegradationAndAttestationRejectsBurst(t *testing.T) {
	r := E28Degradation(testSeed)
	for _, mode := range []string{"trust-all", "signed-two-sided"} {
		if r.MustGet(mode+" healthy", "delivery-gold") != 1 || r.MustGet(mode+" healthy", "delivery-be") != 1 {
			t.Fatalf("%s: healthy phase should deliver everything", mode)
		}
		if r.MustGet(mode+" healed", "delivery-gold") != 1 || r.MustGet(mode+" healed", "delivery-be") != 1 {
			t.Fatalf("%s: healed phase should fully recover", mode)
		}
		gold := r.MustGet(mode+" degraded", "delivery-gold")
		be := r.MustGet(mode+" degraded", "delivery-be")
		if gold <= be {
			t.Fatalf("%s: shedding should protect gold over best-effort (gold=%v be=%v)", mode, gold, be)
		}
		if r.MustGet(mode+" degraded", "shed-drops") <= 0 {
			t.Fatalf("%s: shed plane never engaged", mode)
		}
	}
	if ta, s2 := r.MustGet("trust-all degraded", "delivery-gold"), r.MustGet("signed-two-sided degraded", "delivery-gold"); ta >= s2 {
		t.Fatalf("byzantine burst should cost the trusting plane delivery: trust-all=%v signed=%v", ta, s2)
	}
	if r.MustGet("signed-two-sided degraded", "ads-rejected") <= 0 {
		t.Fatal("attestation should reject the byzantine burst")
	}
	if r.MustGet("trust-all degraded", "ads-rejected") != 0 {
		t.Fatal("trust-all must swallow the burst")
	}
}

func TestE29EveryStrategyBeatsSinglePath(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		r := E29MultipathAvailability(seed)
		single := r.MustGet("single-path", "availability")
		if single <= 0 || single >= 1 {
			t.Fatalf("seed %d: single-path availability %v should be partial under the fault schedule", seed, single)
		}
		for _, strat := range multipath.Strategies() {
			a := r.MustGet(strat.Name(), "availability")
			if a <= single {
				t.Fatalf("seed %d: %s availability %v not strictly above single-path %v", seed, strat.Name(), a, single)
			}
			// Goodput is not the criterion (latency-weighted deliberately
			// keeps favoring the fast path that keeps dying), but no
			// strategy should pay more than a small goodput tax for its
			// availability.
			if r.MustGet(strat.Name(), "delivered-kb") < 0.9*r.MustGet("single-path", "delivered-kb") {
				t.Fatalf("seed %d: %s goodput collapsed relative to single-path", seed, strat.Name())
			}
			if r.MustGet(strat.Name(), "demotions") <= 0 {
				t.Fatalf("seed %d: %s never demoted a path under the fault schedule", seed, strat.Name())
			}
		}
	}
}

func TestE30PartitionCompletesIntactOnSurvivors(t *testing.T) {
	r := E30PartitionReconvergence(testSeed)
	for _, strat := range multipath.Strategies() {
		name := strat.Name()
		if r.MustGet(name, "done") != 1 {
			t.Fatalf("%s did not complete across the partition", name)
		}
		if r.MustGet(name, "stream-intact") != 1 {
			t.Fatalf("%s delivered a corrupted or duplicated stream", name)
		}
		reconv := r.MustGet(name, "reconv-ms")
		if reconv <= 0 || reconv > 1000 {
			t.Fatalf("%s reconvergence %vms implausible", name, reconv)
		}
		if f := r.MustGet(name, "fairness"); f <= 0.5 || f > 1 {
			t.Fatalf("%s survivor fairness %v out of range", name, f)
		}
	}
}

// TestMPPayloadBytes pins E29/E30's payload to its defining formula, at
// sizes either side of the 509-byte runs mpPayload fills.
func TestMPPayloadBytes(t *testing.T) {
	for _, n := range []int{0, 1, 508, 509, 510, 1018, 768 << 10} {
		got := mpPayload(n)
		if len(got) != n {
			t.Fatalf("mpPayload(%d) has %d bytes", n, len(got))
		}
		for i, b := range got {
			if want := byte(i*13 + i/509); b != want {
				t.Fatalf("mpPayload(%d)[%d] = %d, want %d", n, i, b, want)
			}
		}
	}
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	results := All(testSeed)
	if len(results) != 30 {
		t.Fatalf("All returned %d results", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if len(r.Rows) == 0 || r.Finding == "" || r.Claim == "" {
			t.Fatalf("%s incomplete: rows=%d finding=%q", r.ID, len(r.Rows), r.Finding)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		if !strings.Contains(buf.String(), r.ID) || !strings.Contains(buf.String(), "finding:") {
			t.Fatalf("%s render malformed:\n%s", r.ID, buf.String())
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Same seed, same tables — the reproducibility guarantee.
	a := E1NamingIsolation(7)
	b := E1NamingIsolation(7)
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i].Values[j], b.Rows[i].Values[j])
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "T", Columns: []string{"a", "b"}}
	r.AddRow("x", 1, 2)
	if v, ok := r.Get("x", "b"); !ok || v != 2 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := r.Get("x", "zzz"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := r.Get("zzz", "a"); ok {
		t.Fatal("missing row found")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddRow arity mismatch should panic")
			}
		}()
		r.AddRow("bad", 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustGet miss should panic")
			}
		}()
		r.MustGet("zzz", "a")
	}()
}
