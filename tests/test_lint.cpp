// Unit tests for the delta_lint rules (src/lint): each rule gets positive
// (violating) and negative (clean) synthetic snippets, plus the
// `// delta-lint: allow(<rule>)` suppression path.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace delta::lint {
namespace {

std::vector<Finding> lint(std::string_view text, FileInfo info = {}) {
  if (info.path_label.empty()) info.path_label = "src/fake/snippet.cpp";
  return lint_text(info, text);
}

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int count_rule(const std::vector<Finding>& fs, std::string_view rule) {
  return static_cast<int>(std::count_if(
      fs.begin(), fs.end(), [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------- unordered-iter

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedMember) {
  const auto fs = lint(
      "#include <unordered_map>\n"
      "struct Dir {\n"
      "  std::unordered_map<int, int> dir_;\n"
      "  int sum() {\n"
      "    int s = 0;\n"
      "    for (const auto& [k, v] : dir_) s += v;\n"
      "    return s;\n"
      "  }\n"
      "};\n");
  ASSERT_TRUE(has_rule(fs, "unordered-iter"));
  EXPECT_EQ(fs.front().line, 6);
}

TEST(LintUnorderedIter, FlagsExplicitBeginEnd) {
  const auto fs = lint(
      "std::unordered_set<int> seen;\n"
      "auto it = seen.begin();\n");
  EXPECT_TRUE(has_rule(fs, "unordered-iter"));
}

TEST(LintUnorderedIter, LookupsAndOrderedContainersAreClean) {
  const auto fs = lint(
      "std::unordered_map<int, int> idx;\n"
      "std::map<int, int> ordered;\n"
      "int f() { return idx.find(3) != idx.end() ? 1 : 0; }\n"
      "int g() { int s = 0; for (auto& [k, v] : ordered) s += v; return s; }\n");
  // Lookups and the find-sentinel end() comparison never observe iteration
  // order; range-for over the *ordered* map is equally fine.
  EXPECT_FALSE(has_rule(fs, "unordered-iter"));
}

TEST(LintUnorderedIter, SuppressionComment) {
  const auto fs = lint(
      "std::unordered_map<int, int> hist;\n"
      "for (auto& [k, v] : hist) {}  // delta-lint: allow(unordered-iter)\n");
  EXPECT_FALSE(has_rule(fs, "unordered-iter"));
}

// ---------------------------------------------------------------- nondet-source

TEST(LintNondetSource, FlagsRandAndWallClock) {
  const auto fs = lint(
      "int a = rand();\n"
      "auto t = std::chrono::system_clock::now();\n"
      "std::random_device rd;\n"
      "long s = time(nullptr);\n");
  EXPECT_EQ(count_rule(fs, "nondet-source"), 4);
}

TEST(LintNondetSource, ProjectRngAndIdentifiersAreClean) {
  const auto fs = lint(
      "delta::Rng rng(seed);\n"
      "auto x = rng.below(16);\n"
      "double end_time(int c);\n"       // 'time' inside identifier: clean.
      "int operand = 3; (void)operand;\n");  // 'rand' inside identifier: clean.
  EXPECT_FALSE(has_rule(fs, "nondet-source"));
}

TEST(LintNondetSource, FlagsSteadyClockOutsideProfSubsystem) {
  const auto fs = lint(
      "auto t0 = std::chrono::steady_clock::now();\n"
      "auto t1 = std::chrono::high_resolution_clock::now();\n");
  EXPECT_EQ(count_rule(fs, "nondet-source"), 2);
}

TEST(LintNondetSource, SteadyClockAllowedInProfSubsystem) {
  FileInfo info;
  info.path_label = "src/obs/prof/prof.hpp";
  const auto fs = lint(
      "auto t0 = std::chrono::steady_clock::now();\n"
      "auto t1 = std::chrono::high_resolution_clock::now();\n"
      "auto bad = std::chrono::system_clock::now();\n",
      info);
  // The carve-out covers the monotonic clocks only; wall time that varies
  // across runs stays banned even inside the profiling subsystem.
  EXPECT_EQ(count_rule(fs, "nondet-source"), 1);
}

TEST(LintNondetSource, CommentsAndStringsAreIgnored) {
  const auto fs = lint(
      "// rand() would break determinism\n"
      "const char* msg = \"never call time() here\";\n");
  EXPECT_FALSE(has_rule(fs, "nondet-source"));
}

TEST(LintNondetSource, Suppression) {
  const auto fs = lint(
      "long s = time(nullptr);  // delta-lint: allow(nondet-source)\n");
  EXPECT_FALSE(has_rule(fs, "nondet-source"));
}

// ---------------------------------------------------------------- raw-intrinsic

TEST(LintRawIntrinsic, FlagsIntrinsicHeaders) {
  const auto fs = lint(
      "#include <emmintrin.h>\n"
      "#include <arm_neon.h>\n");
  EXPECT_EQ(count_rule(fs, "raw-intrinsic"), 2);
}

TEST(LintRawIntrinsic, FlagsMmIdentifiersAndBuiltinPrefetch) {
  const auto fs = lint(
      "void f(const void* p) {\n"
      "  __builtin_prefetch(p, 0, 3);\n"
      "  auto v = _mm_set1_epi64x(1);\n"
      "  auto w = _mm256_setzero_si256();\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "raw-intrinsic"), 3);
}

TEST(LintRawIntrinsic, DispatchLayerIsExempt) {
  FileInfo info;
  info.path_label = "src/common/simd.hpp";
  const auto fs = lint_text(info,
                            "#include <emmintrin.h>\n"
                            "auto v = _mm_set1_epi64x(1);\n");
  EXPECT_FALSE(has_rule(fs, "raw-intrinsic"));
}

TEST(LintRawIntrinsic, WrapperCallsAndMidTokenMatchesAreClean) {
  const auto fs = lint(
      "#include \"common/simd.hpp\"\n"
      "void f(const std::uint64_t* v) {\n"
      "  simd::prefetch_read(v);\n"
      "  auto m = simd::match_u64(v, 16, 3);\n"
      "  int comm_mm = 0;\n"       // `_mm` mid-identifier: not a token start.
      "}\n");
  EXPECT_FALSE(has_rule(fs, "raw-intrinsic"));
}

TEST(LintRawIntrinsic, SuppressionWaives) {
  const auto fs = lint(
      "void f(const void* p) {\n"
      "  __builtin_prefetch(p);  // delta-lint: allow(raw-intrinsic)\n"
      "}\n");
  EXPECT_FALSE(has_rule(fs, "raw-intrinsic"));
}

// ---------------------------------------------------------------- raw-affinity

TEST(LintRawAffinity, FlagsRawAffinityApiAndSchedHeader) {
  const auto fs = lint(
      "#include <sched.h>\n"
      "void pin() {\n"
      "  cpu_set_t set;\n"
      "  sched_setaffinity(0, sizeof(set), &set);\n"
      "  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);\n"
      "  int cpu = sched_getcpu();\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "raw-affinity"), 5);
}

TEST(LintRawAffinity, FormerShimPathIsNotExempt) {
  FileInfo info;
  info.path_label = "src/common/affinity.hpp";
  const auto fs = lint_text(info,
                            "#include <sched.h>\n"
                            "cpu_set_t set;\n"
                            "sched_setaffinity(0, sizeof(set), &set);\n");
  EXPECT_EQ(count_rule(fs, "raw-affinity"), 3);
}

TEST(LintRawAffinity, ShimCallsAndCommentsAreClean) {
  const auto fs = lint(
      "#include \"common/affinity.hpp\"\n"
      "// pthread_setaffinity_np lives behind the shim\n"
      "bool ok = common::pin_current_thread(3);\n"
      "unsigned n = common::affinity_cpu_count();\n");
  EXPECT_FALSE(has_rule(fs, "raw-affinity"));
}

TEST(LintRawAffinity, SuppressionWaives) {
  const auto fs = lint(
      "int cpu = sched_getcpu();  // delta-lint: allow(raw-affinity)\n");
  EXPECT_FALSE(has_rule(fs, "raw-affinity"));
}

// ---------------------------------------------------------------- ptr-key

TEST(LintPtrKey, FlagsPointerKeyedMapAndSet) {
  const auto fs = lint(
      "std::map<Node*, int> by_node;\n"
      "std::set<const Tile*> tiles;\n");
  EXPECT_EQ(count_rule(fs, "ptr-key"), 2);
}

TEST(LintPtrKey, PointerValuesAndValueKeysAreClean) {
  const auto fs = lint(
      "std::map<int, Node*> owner;\n"
      "std::set<std::string> names;\n"
      "std::bitset<64> mask;\n");
  EXPECT_FALSE(has_rule(fs, "ptr-key"));
}

// ---------------------------------------------------------------- naked-new

TEST(LintNakedNew, FlagsNewAndDelete) {
  const auto fs = lint(
      "int* p = new int[4];\n"
      "delete[] p;\n");
  EXPECT_EQ(count_rule(fs, "naked-new"), 2);
}

TEST(LintNakedNew, DeletedFunctionsAndIdentifiersAreClean) {
  const auto fs = lint(
      "struct S {\n"
      "  S(const S&) = delete;\n"
      "  S& operator=(const S&) = delete;\n"
      "};\n"
      "int renew_lease(int news);\n"
      "auto q = std::make_unique<int>(3);\n");
  EXPECT_FALSE(has_rule(fs, "naked-new"));
}

TEST(LintNakedNew, Suppression) {
  const auto fs = lint(
      "auto* leak = new Registry();  // delta-lint: allow(naked-new)\n");
  EXPECT_FALSE(has_rule(fs, "naked-new"));
}

// ---------------------------------------------------------------- own-header-first

TEST(LintOwnHeaderFirst, FlagsWrongFirstInclude) {
  FileInfo info;
  info.path_label = "src/sim/chip.cpp";
  info.expected_header = "sim/chip.hpp";
  const auto fs = lint(
      "#include <vector>\n"
      "#include \"sim/chip.hpp\"\n",
      info);
  ASSERT_TRUE(has_rule(fs, "own-header-first"));
  EXPECT_EQ(fs.front().line, 1);
}

TEST(LintOwnHeaderFirst, OwnHeaderFirstIsClean) {
  FileInfo info;
  info.path_label = "src/sim/chip.cpp";
  info.expected_header = "sim/chip.hpp";
  const auto fs = lint(
      "// Comment banner.\n"
      "#include \"sim/chip.hpp\"\n"
      "#include <vector>\n",
      info);
  EXPECT_FALSE(has_rule(fs, "own-header-first"));
}

TEST(LintOwnHeaderFirst, HeadersAndHeaderlessSourcesAreExempt) {
  const auto fs = lint("#include <vector>\n");  // expected_header empty.
  EXPECT_FALSE(has_rule(fs, "own-header-first"));
}

// ---------------------------------------------------------------- machinery

TEST(LintMachinery, MultiRuleSuppressionList) {
  const auto fs = lint(
      "int* p = new int(rand());"
      "  // delta-lint: allow(naked-new, nondet-source)\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LintMachinery, SuppressionIsRuleSpecific) {
  const auto fs = lint(
      "int* p = new int(rand());  // delta-lint: allow(naked-new)\n");
  EXPECT_FALSE(has_rule(fs, "naked-new"));
  EXPECT_TRUE(has_rule(fs, "nondet-source"));
}

TEST(LintMachinery, FormatIsFileLineRule) {
  Finding f{"src/x.cpp", 12, "naked-new", "naked new", {}};
  EXPECT_EQ(format(f), "src/x.cpp:12: naked-new: naked new");
}

TEST(LintMachinery, FindingsAreLineSorted) {
  const auto fs = lint(
      "long t = time(nullptr);\n"
      "int* p = new int;\n"
      "std::map<int*, int> m;\n");
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[2].line, 3);
}

TEST(LintMachinery, RepositorySourceTreeIsClean) {
  // The tree walk itself is exercised end-to-end by the `delta_lint` ctest;
  // here: linting an empty/missing directory yields no findings.
  EXPECT_TRUE(lint_tree("/nonexistent-delta-lint-root").empty());
}

// ---------------------------------------------------------------- tree walk

namespace fs = std::filesystem;

/// Scratch tree under the test temp dir; removed on destruction.
struct ScratchTree {
  fs::path root;
  explicit ScratchTree(const std::string& name)
      : root(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~ScratchTree() { fs::remove_all(root); }
  void put(const std::string& rel, std::string_view text) const {
    const fs::path p = root / rel;
    fs::create_directories(p.parent_path());
    std::ofstream(p) << text;
  }
};

TEST(LintTreeWalk, SkipsBuildAndDotDirectories) {
  ScratchTree t("delta_lint_walk_skip");
  t.put("a.cpp", "int* p = new int;\n");
  t.put("build/gen.cpp", "int* p = new int;\n");
  t.put("build-release/gen.cpp", "int* p = new int;\n");
  t.put(".cache/x.cpp", "int* p = new int;\n");
  const auto fs_found = lint_tree(t.root);
  ASSERT_EQ(fs_found.size(), 1u);
  // Only the real source is linted; generated trees never produce findings.
  EXPECT_NE(fs_found[0].file.find("a.cpp"), std::string::npos);
  EXPECT_EQ(fs_found[0].file.find("build"), std::string::npos);
}

TEST(LintTreeWalk, WalkOrderIsDeterministicAndSorted) {
  ScratchTree t("delta_lint_walk_order");
  // Names chosen so creation order differs from lexicographic order.
  t.put("zeta.cpp", "int* a = new int;\n");
  t.put("alpha.cpp", "int* b = new int;\n");
  t.put("mid/beta.cpp", "int* c = new int;\n");
  const auto first = lint_tree(t.root);
  ASSERT_EQ(first.size(), 3u);
  // Findings come back sorted by (file, line, rule) — the contract the
  // baseline format and CI diffing rely on.
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file < b.file;
                             }));
  EXPECT_NE(first[0].file.find("alpha.cpp"), std::string::npos);
  EXPECT_NE(first[1].file.find("mid/beta.cpp"), std::string::npos);
  EXPECT_NE(first[2].file.find("zeta.cpp"), std::string::npos);
  // A second walk reproduces the first byte for byte.
  const auto second = lint_tree(t.root);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].file, first[i].file);
    EXPECT_EQ(second[i].line, first[i].line);
    EXPECT_EQ(second[i].rule, first[i].rule);
  }
}

TEST(LintTreeWalk, RuleFilterSelectsSubset) {
  ScratchTree t("delta_lint_walk_filter");
  t.put("a.cpp", "int* p = new int(rand());\n");
  TreeOptions only_new;
  only_new.rules = {"naked-new"};
  const auto fs_found = lint_tree(t.root, only_new);
  ASSERT_EQ(fs_found.size(), 1u);
  EXPECT_EQ(fs_found[0].rule, "naked-new");
}

// ---------------------------------------------------------------- baseline

TEST(LintBaseline, ParsesEntriesSkippingCommentsAndBlanks) {
  ScratchTree t("delta_lint_baseline");
  t.put("base.txt",
        "# findings accepted while the refactor lands\n"
        "\n"
        "  src/sim/chip.cpp:layering  \n"
        "src/core/cbt.hpp:phase-effect\n");
  bool ok = false;
  const Baseline b = load_baseline(t.root / "base.txt", &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].first, "src/sim/chip.cpp");
  EXPECT_EQ(b.entries[0].second, "layering");
  EXPECT_EQ(b.entries[1].first, "src/core/cbt.hpp");
  EXPECT_EQ(b.entries[1].second, "phase-effect");
}

TEST(LintBaseline, UnreadableFileReportsNotOk) {
  bool ok = true;
  const Baseline b = load_baseline("/nonexistent-delta-baseline", &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(b.entries.empty());
}

TEST(LintBaseline, WaivesMatchingFindingsOnly) {
  std::vector<Finding> fs_found = {
      {"src/a.cpp", 3, "layering", "d", {}},
      {"src/a.cpp", 9, "naked-new", "d", {}},
      {"src/b.cpp", 1, "layering", "d", {}},
  };
  Baseline b;
  b.entries = {{"src/a.cpp", "layering"}};
  // Matching is (file, rule) — line-agnostic, so baselines survive edits
  // elsewhere in the file; the other rule and the other file stay reported.
  EXPECT_EQ(apply_baseline(b, fs_found), 1u);
  ASSERT_EQ(fs_found.size(), 2u);
  EXPECT_EQ(fs_found[0].rule, "naked-new");
  EXPECT_EQ(fs_found[1].file, "src/b.cpp");
}

}  // namespace
}  // namespace delta::lint
