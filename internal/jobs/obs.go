package jobs

import "tangled/internal/obs"

// Obs is the jobs metric family. An unobserved Manager holds NewObs(nil),
// whose handles are all nil — and nil obs handles are no-ops — so call
// sites use the handles directly.
type Obs struct {
	// QueueDepth is per-tenant queued jobs (jobs_queue_depth{tenant=...}).
	QueueDepth *obs.GaugeVec
	// Running is currently executing jobs.
	Running *obs.Gauge
	// States counts FSM transitions by state entered.
	States *obs.CounterVec
	// Resumed counts queued jobs re-admitted after restart; ResumeFailed
	// counts running-at-crash jobs marked failed on restart.
	Resumed      *obs.Counter
	ResumeFailed *obs.Counter
	// Rejected counts ErrQueueFull refusals.
	Rejected *obs.Counter
	// Evicted counts terminal jobs dropped by the retention bound.
	Evicted *obs.Counter
	// WALRecords/WALBytes describe the live log; Compactions counts
	// snapshot rewrites.
	WALRecords  *obs.Gauge
	WALBytes    *obs.Gauge
	Compactions *obs.Counter
	// Subscribers is current event-stream subscribers; EventsDropped
	// counts events lost to slow subscribers (recoverable via since).
	Subscribers   *obs.Gauge
	EventsDropped *obs.Counter
}

// NewObs registers the jobs metric family on r (nil r yields a fully
// detached, still-safe Obs).
func NewObs(r *obs.Registry) *Obs {
	return &Obs{
		QueueDepth:    r.GaugeVec("jobs_queue_depth", "Queued jobs per tenant.", "tenant"),
		Running:       r.Gauge("jobs_running", "Jobs currently executing."),
		States:        r.CounterVec("jobs_state_total", "Job FSM transitions by state entered.", "state", []string{"queued", "running", "completed", "failed", "canceled"}),
		Resumed:       r.Counter("jobs_resumed_total", "Queued jobs re-admitted from the WAL after restart."),
		ResumeFailed:  r.Counter("jobs_resume_failed_total", "Jobs running at crash, marked failed on restart."),
		Rejected:      r.Counter("jobs_rejected_total", "Job submissions refused by the queue bound."),
		Evicted:       r.Counter("jobs_evicted_total", "Terminal jobs dropped by the retention bound."),
		WALRecords:    r.Gauge("jobs_wal_records", "Records in the WAL since the last compaction."),
		WALBytes:      r.Gauge("jobs_wal_bytes", "Current WAL file size in bytes."),
		Compactions:   r.Counter("jobs_wal_compactions_total", "WAL snapshot rewrites."),
		Subscribers:   r.Gauge("jobs_event_subscribers", "Current lifecycle-event stream subscribers."),
		EventsDropped: r.Counter("jobs_events_dropped_total", "Events dropped on slow subscriber channels."),
	}
}

// stateIdx maps a state to its CounterVec index (registration order of
// the values list in NewObs).
func stateIdx(st State) int {
	switch st {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	case StateCompleted:
		return 2
	case StateFailed:
		return 3
	case StateCanceled:
		return 4
	}
	return -1
}
