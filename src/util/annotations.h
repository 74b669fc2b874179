// Contract annotations consumed by the grefar-lint clang-tidy module
// (tools/grefar-lint, DESIGN.md §13).
//
// The repo's performance and determinism guarantees rest on contracts that
// cannot be expressed in the type system:
//
//   * GREFAR_HOT_PATH    — the function runs every slot on the steady-state
//     decide/reset/kernel/merge path and must not allocate (DESIGN.md §7:
//     the runtime alloc_regression_test is the dynamic half of this
//     contract; the grefar-hot-path-alloc check is the static half).
//   * GREFAR_DETERMINISTIC — the function participates in a bit-identical
//     reproducibility contract (DESIGN.md §6: results identical at any
//     --jobs; §12: hinted == identity-list per-slot solves bitwise). It must not
//     read clocks, entropy, thread ids, or accumulate floating-point state
//     in unordered-container iteration order.
//
// Under clang the macros expand to [[clang::annotate("...")]] so the lint
// module can match annotated declarations in the AST; under every other
// compiler they expand to nothing (GCC would warn on the unknown attribute,
// and -Werror builds would break). Either way they have zero effect on
// codegen: `annotate` is metadata-only and Release binaries are unchanged
// (tests/util/annotations_test.cc asserts the expansion contract).
//
// Usage: the macro goes in front of the declaration (and, for out-of-line
// definitions, in front of the definition too — clang-tidy matches the
// definition it sees in the translation unit):
//
//   GREFAR_HOT_PATH void reset(const SlotObservation& obs);
//   GREFAR_HOT_PATH GREFAR_DETERMINISTIC
//   void solve_per_slot_greedy_into(...);
//
// Annotating a new function opts it into the checks; the contracts and the
// annotation discipline for new code are described in DESIGN.md §13.
#pragma once

// Detection is deliberately ad hoc (__has_cpp_attribute probes the clang::
// namespace) rather than #ifdef __clang__ so any frontend that understands
// the attribute — notably clang-tidy itself, which is what actually reads
// these — gets the annotation.
#if defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::annotate)
#define GREFAR_ANNOTATE(text) [[clang::annotate(text)]]
#endif
#endif
#ifndef GREFAR_ANNOTATE
#define GREFAR_ANNOTATE(text)
#endif

/// Steady-state per-slot function: must not allocate. Enforced statically by
/// grefar-hot-path-alloc and dynamically by alloc_regression_test.
#define GREFAR_HOT_PATH GREFAR_ANNOTATE("grefar::hot_path")

/// Bit-identical-reproducibility function: no clocks, no entropy, no thread
/// ids, no FP accumulation over unordered-container iteration. Enforced by
/// grefar-determinism.
#define GREFAR_DETERMINISTIC GREFAR_ANNOTATE("grefar::deterministic")
