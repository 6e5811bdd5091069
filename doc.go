// Package repro is a from-scratch Go reproduction of "The Design and
// Implementation of a Distributed Web Document Database" (Timothy K.
// Shih, Jianhua Ma & Runhe Huang, ICPP 1999): the virtual-course
// database of the Multimedia Micro-University project, including its
// relational substrate, BLOB layer, document layer, referential
// integrity diagram, hierarchical locking, m-ary tree distribution
// with watermark replication, virtual library, testing subsystem and
// annotation model.
//
// There is no facade package: callers wire the substrates directly, as
// examples/quickstart and examples/collab show. README.md has the tour
// and the per-package verdicts. The benchmarks in this package
// (bench_test.go) regenerate the evaluation tables E1–E10 and measure
// the substrates.
package repro
