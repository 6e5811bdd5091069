// Package analysis is the engine behind webdoclint: a small static
// analysis framework built entirely on the standard library's go/ast,
// go/parser and go/types, with no dependency on x/tools.
//
// A Loader type-checks packages from source — module-internal import
// paths resolve straight to their directories under the module root,
// everything else goes through the compiler's source importer — so the
// analyzers see fully resolved types and can tell os.Rename from a
// local helper of the same name.
//
// An Analyzer is a name, a doc string and a Run function over a Pass;
// a Pass bundles one package's syntax, type information and a
// position-tagged diagnostic sink. Run applies a set of analyzers to a
// set of packages and returns the merged, position-sorted diagnostics.
//
// The seven project analyzers encode invariants the rest of the
// codebase relies on but go vet cannot see:
//
//   - atomicwrite: no raw os.Create, os.WriteFile or os.Rename outside
//     internal/atomicio — file installation is temp, fsync, rename.
//   - lockorder: statically-known table lists passed to relstore's
//     Begin are sorted ascending, mirroring the runtime lock hierarchy
//     so deadlock-shaped declarations are caught before they run.
//   - routearound: every route-around classifier a function hands
//     out — the fabric kernel's hopRules picks one from an operation's
//     idempotent flag — is grounded in transport.Unreachable; grafting
//     on any other error class re-delivers to subtrees whose relay
//     already ran.
//   - sentinelerr: comparisons against the module's Err* sentinels use
//     errors.Is, not == or !=, so wrapped errors keep matching.
//   - tracecall: inside traced scopes (CtxHandler registrations,
//     functions carrying a trace context, and the method set of any
//     type that registers CtxHandlers) RPCs go through CallTrace, not
//     Pool.Call, so distributed traces never silently lose a hop.
//   - unreached: every package-level name and method declared in
//     internal/ is referenced by some non-test file of the module;
//     what only tests call lives in a test file. It counts references
//     over the whole run, so Lint loads the whole module even when
//     asked for one package.
//   - wiretag: every tag constant in a wire package is referenced by
//     an Append-side function and has a case arm in a Read-side
//     switch, keeping the codec's encode and decode tables in lockstep.
//
// Deliberate exceptions are waived in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory, the
// analyzer name must exist, and a suppression that suppresses nothing
// is itself reported — waivers cannot silently outlive the code they
// excuse.
//
// Fixture packages under testdata/src pin each analyzer's positive and
// negative cases with // want expectation comments; see want_test.go.
package analysis
