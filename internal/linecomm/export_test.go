package linecomm

// Test-only hooks for the external test package, whose tests import
// internal/core (which itself imports linecomm).

// SelectsSlotted reports whether the streaming validators would run net
// on the slotted engine under Definition 1 capacities. It evaluates the
// selection predicate only; no engine state is allocated.
func SelectsSlotted(net Network) bool {
	_, ok := slottedFor(net, net.Order())
	return ok
}
