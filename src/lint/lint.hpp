// delta_lint: project-specific determinism and hygiene rules the compiler
// cannot enforce.  The DELTA policy loop must be bit-reproducible from a
// seed (the differential oracle and the cross-thread determinism check in
// src/check depend on it), so sources of cross-run variation are banned
// from src/ outright:
//
//   unordered-iter    iterating a std::unordered_map/unordered_set
//                     (iteration order depends on hash layout and libstdc++
//                     version; any fold over it can change results)
//   nondet-source     rand()/srand(), std::random_device, wall-clock
//                     (std::chrono::system_clock, time(), clock()) — all
//                     randomness must flow through common/rng.hpp seeds.
//                     steady_clock/high_resolution_clock are banned too,
//                     with one carve-out: files under src/obs/prof, the
//                     self-profiling subsystem whose whole job is reading
//                     the clock (sim/ code instruments itself through its
//                     RAII types and never touches a clock directly)
//   raw-intrinsic     intrinsic headers (<emmintrin.h>, <immintrin.h>,
//                     <arm_neon.h>, ...), `_mm*` identifiers and
//                     __builtin_prefetch anywhere but src/common/simd.hpp,
//                     the single SIMD dispatch layer — per-ISA code outside
//                     it escapes the -DDELTA_NO_SIMD scalar-equivalence CI
//                     job and the bit-identity contract it enforces
//   raw-affinity      raw OS thread-affinity API (pthread_setaffinity_np,
//                     sched_setaffinity, cpu_set_t, sched_getcpu, <sched.h>)
//                     anywhere under src/ — the engine leaves thread
//                     placement to the OS, and affinity calls tie code to
//                     one platform.  No file is exempt
//   ptr-key           pointer-keyed ordered containers (std::map<T*, ...>):
//                     ordered by allocation addresses, i.e. by ASLR
//   naked-new         naked new/delete — owning raw pointers; use values,
//                     containers or smart pointers
//   own-header-first  a .cpp must include its own header first, proving the
//                     header is self-contained
//
// A violation can be waived on its line with the suppression comment
//   // delta-lint: allow(<rule>)
//
// The scanner is lexical (comments and literals stripped, then per-line
// token matching): fast, dependency-free, and precise enough for a
// single-style codebase.  Run as a ctest over src/ (label `lint`) and unit
// tested on synthetic snippets in tests/test_lint.cpp.
//
// On top of the lexical rules sits a small semantic layer built on the
// token-level front in lint/ir.hpp:
//
//   phase-effect      the sim::Scheme thread-locality contract, checked
//                     over each scheme's during-epoch hook closure
//                     (lint/phase_check.hpp)
//   layering          the declared module DAG of src/ enforced over the
//                     real include graph, plus include-cycle detection
//                     (lint/layering.hpp)
//
// lint_tree() runs all of it; the delta_lint CLI adds --rule filtering, a
// findings --baseline, machine-readable --json output and
// --fix-suggestions (the exact suppression/annotation line per finding).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace delta::lint {

struct Finding {
  std::string file;  ///< Path label as reported (repo-relative for the tree walk).
  int line = 0;      ///< 1-based.
  std::string rule;
  std::string detail;
  /// Paste-ready triage hint (the exact suppression/annotation line or
  /// baseline entry); surfaced by `delta_lint --fix-suggestions` and in the
  /// JSON export.  Empty when the fix is a plain code change.
  std::string suggestion;
};

/// Per-file context supplied by the tree walker (unit tests fabricate it).
struct FileInfo {
  std::string path_label;
  /// Include path of the file's own header ("sim/mt_sim.hpp"); empty when
  /// the file is a header or has no same-name header next to it.  Enables
  /// the own-header-first rule.
  std::string expected_header;
};

/// Lints one translation unit's text.  Findings are in line order.
std::vector<Finding> lint_text(const FileInfo& info, std::string_view text);

/// Tree-walk options.  `rules` empty == run everything; otherwise only the
/// named rules are reported.  Known names: the seven lexical rules
/// (unordered-iter, nondet-source, raw-intrinsic, raw-affinity, ptr-key,
/// naked-new, own-header-first)
/// plus the semantic rules phase-effect (lint/phase_check.hpp), layering
/// and include-cycle (lint/layering.hpp).
struct TreeOptions {
  std::vector<std::string> rules;
};

/// Walks `root` (typically <repo>/src), lints every .hpp/.cpp, and returns
/// all findings sorted by (file, line, rule).  Paths are reported relative
/// to `root`'s parent so messages read "src/...".  The walk is
/// deterministic (files sorted by generic path, independent of filesystem
/// enumeration order) and skips `build*` directories and dot-directories
/// outright, so pointing the tool at a repo root never lints generated
/// artifacts.
std::vector<Finding> lint_tree(const std::filesystem::path& root);
std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               const TreeOptions& opts);

/// Findings baseline: a text file with one `<file>:<rule>` entry per line
/// (`#` comments and blank lines ignored).  Every finding whose file and
/// rule match an entry is waived — line numbers deliberately excluded so a
/// baseline survives unrelated edits.
struct Baseline {
  std::vector<std::pair<std::string, std::string>> entries;  ///< (file, rule)
};

/// Parses a baseline file; `ok` (when non-null) reports whether the file
/// was readable.  An unreadable file yields an empty baseline.
Baseline load_baseline(const std::filesystem::path& path, bool* ok = nullptr);

/// Removes findings matched by the baseline; returns how many were waived.
std::size_t apply_baseline(const Baseline& baseline,
                           std::vector<Finding>& findings);

/// "file:line: rule: detail" — the format the ctest prints per violation.
std::string format(const Finding& f);

}  // namespace delta::lint
