// Package telemetry is the live observability layer: it renders the
// attached DB's stats.Report — the same summary, under the same JSON keys,
// as a bamboo-bench point — over an opt-in HTTP endpoint:
//
//	/metrics     Prometheus text exposition (see docs/METRICS.md)
//	/debug/vars  the report as JSON, plus up and uptime_seconds
//	/healthz     liveness probe ("ok")
//
// The report is built per scrape from atomic loads of the engine's
// counters (core.DB.LiveReport), so a scrape never takes a lock a worker
// holds and never perturbs the zero-allocation hot path. Every series is
// a cumulative counter or a gauge; per-second rates are the scraper's to
// derive (docs/METRICS.md gives the PromQL).
//
// A Registry outlives any one DB: Attach points it at a run's counters,
// Detach (or attaching the next run's sources) ends that; scrapes between
// runs report bamboo_up 0. bamboo-bench uses exactly that shape — one
// process-level registry, re-attached per benchmark point.
package telemetry

import "bamboo/internal/stats"

// Sources is what one DB exposes: a report of its counters so far. Report
// must be safe to call concurrently with running transactions.
type Sources struct {
	Report func() stats.Report
}

// vars is one scrape: the /debug/vars document and what the /metrics
// table reads.
type vars struct {
	// Up reports whether a source is attached; the report is zero when it
	// is not.
	Up            bool    `json:"up"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	stats.Report
}

// vars reads the attached source once.
func (r *Registry) vars() *vars {
	v := &vars{UptimeSeconds: r.now().Sub(r.start).Seconds()}
	if src := r.src.Load(); src != nil {
		v.Up, v.Report = true, src.Report()
	}
	return v
}
