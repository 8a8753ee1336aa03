package serve

// admit.go is the pluggable admission-control layer. Policies are pure
// functions of (virtual time, request) over internal state, so admission
// decisions — like everything else in a serving run — are deterministic.

// Policy decides, at a request's arrival instant, whether it enters the
// batching queue or is shed.
type Policy interface {
	// Name returns the registry name.
	Name() string
	// Admit is called once per arrival, in arrival order, with the
	// current virtual time.
	Admit(now int64, req Request) bool
}

// PolicySpec is one registered admission policy.
type PolicySpec struct {
	// Name is the registry key, as -policy flags spell it.
	Name string
	// Title is a one-line description for listings and docs.
	Title string
	// New binds the policy to a run's config.
	New func(cfg Config) Policy
}

// policyRegistry lists every policy in presentation order (a slice, not
// a map: iteration order is part of the determinism contract).
var policyRegistry = []PolicySpec{
	{
		Name:  "always-admit",
		Title: "admit every request; overload shows up as latency, not drops",
		New:   func(Config) Policy { return alwaysAdmit{} },
	},
	{
		Name:  "token-bucket",
		Title: "shed arrivals beyond a sustained rate with bounded burst credit",
		New: func(cfg Config) Policy {
			return &tokenBucket{
				perCycle: cfg.AdmitRatePerMCycle / 1e6,
				burst:    float64(cfg.AdmitBurst),
				tokens:   float64(cfg.AdmitBurst),
			}
		},
	},
}

// Policies returns every registered policy, in registry order.
func Policies() []PolicySpec {
	return append([]PolicySpec(nil), policyRegistry...)
}

// PolicyNames returns the registered policy names, in registry order.
func PolicyNames() []string {
	out := make([]string, len(policyRegistry))
	for i, p := range policyRegistry {
		out[i] = p.Name
	}
	return out
}

// LookupPolicy finds a policy by name.
func LookupPolicy(name string) (PolicySpec, bool) {
	for _, p := range policyRegistry {
		if p.Name == name {
			return p, true
		}
	}
	return PolicySpec{}, false
}

// alwaysAdmit is the no-shedding baseline.
type alwaysAdmit struct{}

func (alwaysAdmit) Name() string              { return "always-admit" }
func (alwaysAdmit) Admit(int64, Request) bool { return true }

// tokenBucket refills perCycle tokens per cycle up to burst and spends
// one per admitted request.
type tokenBucket struct {
	perCycle float64
	burst    float64
	tokens   float64
	last     int64
}

func (tb *tokenBucket) Name() string { return "token-bucket" }

func (tb *tokenBucket) Admit(now int64, _ Request) bool {
	if now > tb.last {
		tb.tokens += float64(now-tb.last) * tb.perCycle
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}
