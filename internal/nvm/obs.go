package nvm

import "kaminotx/internal/obs"

// ExportObs registers the region's device counters as gauges under prefix
// (e.g. "nvm.main"), so a registry snapshot carries the device-level cost —
// bytes written, cache lines flushed, fences — of whatever the owning
// engine did.
func (r *Region) ExportObs(o *obs.Registry, prefix string) {
	o.Gauge(prefix+".bytes_written", func() uint64 { return r.bytesWritten.Load() })
	o.Gauge(prefix+".lines_flushed", func() uint64 { return r.linesFlushed.Load() })
	o.Gauge(prefix+".fences", func() uint64 { return r.fences.Load() })
}
