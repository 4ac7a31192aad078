//go:build lotterydebug

package rt

// debugCheck runs the full invariant sweep after every task
// completion, queued-task cancellation, shed, and ring-drain cleanup.
// Only built with -tags lotterydebug; the default build compiles this
// away entirely (see debug_off.go). The sweep acquires every shard mutex
// plus the graph lock itself, so it must be called with no dispatcher
// locks held. A violation is a scheduler bug, never an input error,
// so it panics.
func (d *Dispatcher) debugCheck() {
	if err := CheckInvariants(d); err != nil {
		panic(err)
	}
}
