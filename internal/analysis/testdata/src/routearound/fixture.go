// Fixture for the routearound analyzer: every classifier a function
// hands out (a func(error) bool result) must be grounded in
// transport.Unreachable — the function itself, a named predicate that
// consults it, a literal that does, or a pass-through parameter.
package ra

import (
	"time"

	"repro/internal/transport"
)

// canRouteAround consults transport.Unreachable: accepted as a named
// classifier.
func canRouteAround(err error) bool {
	return transport.Unreachable(err)
}

// anyError grafts on every failure without classifying
// unreachability.
func anyError(err error) bool { return err != nil }

// hopRules is the kernel's shape: the classifier and the hop timeout
// chosen together from the operation's idempotent flag.
func hopRules(idempotent bool) (func(error) bool, time.Duration) {
	if idempotent {
		return transport.Unreachable, time.Second
	}
	return canRouteAround, 0
}

func inline() func(error) bool {
	return func(err error) bool { return transport.Unreachable(err) }
}

func careless(idempotent bool) (func(error) bool, time.Duration) {
	if idempotent {
		return anyError, time.Second // want `route-around classifier never consults transport\.Unreachable`
	}
	return func(err error) bool { return true }, 0 // want `route-around classifier never consults transport\.Unreachable`
}

// relay passes its parameter through: the classifier was chosen (and
// checked) where relay's caller got it.
func relay(routeAround func(error) bool) func(error) bool {
	return routeAround
}

// plain predicates are not classifier selectors: their result is a
// bool, and what they return is nobody's grafting rule.
func plain(err error) bool { return err != nil }

// neverGraft is a deliberately different policy with a reasoned
// waiver: suppressed, and the suppression counts as used.
func neverGraft() func(error) bool {
	//lint:ignore routearound this fan-out must surface every failure to the operator instead of repairing around it
	return func(err error) bool { return false }
}
