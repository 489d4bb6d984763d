package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the scrape target: it holds at most one attached Sources
// (the current run's counters) and the optional HTTP server. All methods
// are safe for concurrent use. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	start time.Time
	now   func() time.Time // injectable clock for tests

	src atomic.Pointer[Sources]

	mu     sync.Mutex // guards server
	server *metricsServer
}

// NewRegistry creates an empty registry. Until Attach it reports
// bamboo_up 0 and zeros.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), now: time.Now}
}

// Attach points the registry at src's counters; subsequent scrapes read
// them. Attaching replaces any previous source.
func (r *Registry) Attach(src *Sources) { r.src.Store(src) }

// Detach clears the source, but only if src is still the attached one —
// so a finishing run cannot detach its successor's counters when runs
// overlap on one registry (the bench harness attaches the next point
// before closing the previous DB's registry handle).
func (r *Registry) Detach(src *Sources) {
	if src == nil {
		return
	}
	r.src.CompareAndSwap(src, nil)
}

// Close stops the HTTP server (if running). The registry remains
// scrapeable via Handler afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	srv := r.server
	r.server = nil
	r.mu.Unlock()
	if srv != nil {
		return srv.close()
	}
	return nil
}
