// Package metrics is a stub of the repo's metrics registry for the
// metricname fixtures: the analyzer matches Registry.Counter by
// receiver type name and package name, so this stub stands in for
// icistrategy/internal/metrics.
package metrics

// Counter is a stub.
type Counter struct{}

// Inc is a stub.
func (c *Counter) Inc() {}

// Registry is a stub.
type Registry struct{}

// Counter is a stub get-or-create.
func (r *Registry) Counter(name string) *Counter { return &Counter{} }
