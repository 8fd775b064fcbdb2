// Tests for the per-file rules of the coyote-verify static analyzer
// (tools/coyote_analyze): nondet, unordered-iter, raw-alloc, blocking,
// wall-clock, header-guard, using-ns-header and hot-copy.
//
// Two layers: fixture files on disk (tests/lint_fixtures/, a directory the
// repo-wide walk skips; its src/... subpaths matter to the path-scoped
// wall-clock and hot-copy rules) prove each rule fires on realistic bad code
// and that its suppression comment silences it; in-memory sources pin down
// the trickier tokenizer behaviors (comments, strings, member access,
// trailing tags) and the project-wide unordered-name table. The context rules
// are tested in analyzer_test.cc.

#include "tools/coyote_analyze/analyze.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/coyote_frontend/frontend.h"

namespace coyote {
namespace analyze {
namespace {

#ifndef LINT_FIXTURE_DIR
#error "LINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef PROJECT_SOURCE_DIR
#error "PROJECT_SOURCE_DIR must be defined by the build"
#endif

std::vector<Finding> LintFixture(const std::string& name) {
  return Analyze(IndexPaths(LINT_FIXTURE_DIR, {name}), Options{});
}

std::vector<Finding> AnalyzeSnippet(const std::string& path, const std::string& content) {
  return Analyze(BuildIndex({{path, content}}), Options{});
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&rule](const Finding& f) { return f.rule == rule; });
}

bool HasRuleAtLine(const std::vector<Finding>& findings, const std::string& rule,
                   uint32_t line) {
  return std::any_of(findings.begin(), findings.end(), [&rule, line](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// --- Rule fixtures -----------------------------------------------------------

TEST(LintFixtures, NondetRuleFiresOnEveryBannedForm) {
  const auto findings = LintFixture("bad_nondet.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 4));   // #include <random>
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 7));   // std::random_device
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 8));   // std::mt19937
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 13));  // srand
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 14));  // rand
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 18));  // time(nullptr)
  EXPECT_TRUE(HasRuleAtLine(findings, "nondet", 22));  // getenv
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "nondet") << f.file << ":" << f.line << " " << f.message;
  }
}

TEST(LintFixtures, UnorderedIterRuleFiresOnRangeForAndBegin) {
  const auto findings = LintFixture("bad_unordered.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 10));  // range-for
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 18));  // members.begin()
}

TEST(LintFixtures, UnorderedIterRuleFiresOnTemporaries) {
  const auto findings = LintFixture("bad_unordered_temp.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 12));  // MakeUnorderedSet()
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 20));  // BorrowUnorderedSet() (by-ref)
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 28));  // inline unordered_set{...}
}

TEST(LintFixtures, SuppressionAboveMultiLineStatementIsHonored) {
  // The flagged tokens sit on continuation lines; the comment above the
  // statement's first line must still cover them.
  EXPECT_TRUE(LintFixture("suppressed_multiline.cc").empty());
}

TEST(LintFixtures, WallClockRuleFiresInSimulatorSources) {
  const auto findings = LintFixture("src/bad_wall_clock.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 8));   // steady_clock::now()
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 13));  // system_clock::now()
  EXPECT_TRUE(HasRuleAtLine(findings, "wall-clock", 17));  // sleep_for
}

TEST(LintFixtures, WallClockRuleIgnoresNonSrcPaths) {
  // Identical content outside src/: bench/tests own their wall-clock policy.
  const auto findings =
      AnalyzeSnippet("bench/timing.cc", "long Now() {\n"
                                     "  return std::chrono::steady_clock::now()\n"
                                     "      .time_since_epoch().count();\n"
                                     "}\n");
  EXPECT_FALSE(HasRule(findings, "wall-clock"));
}

TEST(LintFixtures, HostBoundaryAnnotationDisablesWallClock) {
  EXPECT_FALSE(HasRule(LintFixture("src/host_boundary_ok.cc"), "wall-clock"));
}

TEST(LintFixtures, RawAllocRuleFiresOnNewAndDelete) {
  const auto findings = LintFixture("bad_alloc.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "raw-alloc", 3));  // new
  EXPECT_TRUE(HasRuleAtLine(findings, "raw-alloc", 8));  // delete
}

TEST(LintFixtures, BlockingRuleFiresOnSleepSystemAndThreadInclude) {
  const auto findings = LintFixture("bad_blocking.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 2));  // #include <thread>
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 5));  // sleep_for
  EXPECT_TRUE(HasRuleAtLine(findings, "blocking", 9));  // system
}

TEST(LintFixtures, HeaderRulesFireOnBadHeader) {
  const auto findings = LintFixture("bad_header.h");
  EXPECT_TRUE(HasRule(findings, "header-guard"));    // non-canonical guard name
  EXPECT_TRUE(HasRule(findings, "using-ns-header"));  // using namespace std
}

TEST(LintFixtures, HeaderGuardRuleFiresOnMissingGuard) {
  const auto findings = LintFixture("bad_header_missing.h");
  EXPECT_TRUE(HasRule(findings, "header-guard"));
}

TEST(LintFixtures, SuppressionCommentsSilenceEveryRule) {
  EXPECT_TRUE(LintFixture("suppressed_ok.cc").empty());
}

TEST(LintFixtures, CleanCodeProducesNoFindings) {
  EXPECT_TRUE(LintFixture("clean.cc").empty());
}

TEST(LintFixtures, RuleFilterRunsOnlySelectedRules) {
  Options only_alloc;
  only_alloc.rules = {"raw-alloc"};
  const auto findings =
      Analyze(IndexPaths(LINT_FIXTURE_DIR, {"bad_nondet.cc", "bad_alloc.cc"}), only_alloc);
  EXPECT_FALSE(findings.empty());
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "raw-alloc");
  }
}

// --- Tokenizer behaviors -----------------------------------------------------

TEST(LintTokenizer, CommentsAndStringsAreNotCode) {
  const auto findings = AnalyzeSnippet("t.cc",
                                    "// rand() in a comment\n"
                                    "/* srand(1); time(nullptr); */\n"
                                    "const char* s = \"rand() getenv\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, MemberAccessIsNotACall) {
  // Engine events carry a `.time` field; member access must not trip the
  // wall-clock ban, and a declaration `Type rand(` is not a call either.
  const auto findings = AnalyzeSnippet("t.cc",
                                    "struct Ev { long time; };\n"
                                    "long F(Ev e) { return e.time; }\n"
                                    "long G(Ev* e) { return e->time; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, StdQualifiedCallIsStillACall) {
  const auto findings = AnalyzeSnippet("t.cc", "long F() { return std::time(nullptr); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet");
}

TEST(LintTokenizer, DeletedFunctionsAreNotRawDelete) {
  const auto findings = AnalyzeSnippet("t.h",
                                    "#ifndef T_H_\n#define T_H_\n"
                                    "struct S {\n"
                                    "  S(const S&) = delete;\n"
                                    "  S& operator=(const S&) = delete;\n"
                                    "};\n"
                                    "#endif  // T_H_\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintTokenizer, TrailingTagCoversOnlyItsOwnLine) {
  // A tag trailing code on one line must not also silence the next line;
  // only a comment-only line covers the line below it.
  const auto findings = AnalyzeSnippet("t.cc",
                                       "#include <mutex>  // lint: blocking-ok\n"
                                       "#include <thread>\n"
                                       "// lint: blocking-ok\n"
                                       "#include <future>\n");
  ASSERT_EQ(findings.size(), 1u) << FormatReport(findings);
  EXPECT_EQ(findings[0].rule, "blocking");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintSymbols, UnorderedNamesAreCollectedAcrossFiles) {
  // Declaration in one file (a header), iteration in another: the symbol
  // table is project-wide, mirroring member declarations in .h files used by
  // the .cc that iterates them.
  const std::vector<SourceFile> files = {
      {"s.h",
       "#ifndef S_H_\n#define S_H_\n#include <unordered_map>\n"
       "struct S { std::unordered_map<int, int> lookup_; };\n"
       "#endif  // S_H_\n"},
      {"s.cc",
       "#include \"s.h\"\n"
       "int Sum(S& s) { int n = 0; for (auto& [k, v] : s.lookup_) n += v; return n; }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].file, "s.cc");
}

TEST(LintSymbols, VariableOfUnorderedAliasTypeIsCollected) {
  // The alias hides the container type at the declaration: `Table t` must
  // still put `t` in the unordered-name table.
  const auto findings = AnalyzeSnippet(
      "src/node/table.cc",
      "#include <unordered_map>\n"
      "using Table = std::unordered_map<int, int>;\n"
      "int Sum() {\n"
      "  Table t;\n"
      "  int n = 0;\n"
      "  for (const auto& kv : t) { n += kv.second; }\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 6)) << FormatReport(findings);
}

TEST(LintSymbols, UnorderedAliasFromAHeaderIsCollectedAcrossFiles) {
  const std::vector<SourceFile> files = {
      {"src/node/table.h",
       "#ifndef SRC_NODE_TABLE_H_\n#define SRC_NODE_TABLE_H_\n#include <unordered_set>\n"
       "using Peers = std::unordered_set<int>;\n"
       "#endif  // SRC_NODE_TABLE_H_\n"},
      {"src/node/table.cc",
       "#include \"src/node/table.h\"\n"
       "int Count(const Peers& peers) { int n = 0; for (int p : peers) n += p; return n; }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  ASSERT_EQ(findings.size(), 1u) << FormatReport(findings);
  EXPECT_EQ(findings[0].rule, "unordered-iter");
  EXPECT_EQ(findings[0].file, "src/node/table.cc");
}

TEST(LintSymbols, OrderedMapIterationIsFine) {
  const auto findings = AnalyzeSnippet(
      "t.cc",
      "#include <map>\nint F() { std::map<int, int> m; int n = 0;\n"
      "for (auto& [k, v] : m) n += v; return n; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFixtures, HotCopyRuleFiresOnByValuePayloadParams) {
  const auto findings = LintFixture("src/net/bad_hotcopy.cc");
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 9));   // StreamPacket by value
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 10));  // vector<uint8_t> by value
  EXPECT_TRUE(HasRuleAtLine(findings, "hot-copy", 11));  // const-value still copies
  // Everything else in the fixture — refs, moves, pointers, return types,
  // members, locals, constructor calls, the suppressed sink — is clean.
  for (const auto& f : findings) {
    EXPECT_EQ(f.rule, "hot-copy") << f.file << ":" << f.line;
    EXPECT_LE(f.line, 11u) << f.file << ":" << f.line << " " << f.message;
  }
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintRules, HotCopyOnlyAppliesToHotPathDirectories) {
  // The same by-value signature outside src/{axi,dyn,net,memsys} is not the
  // lint's business: cold paths may copy for clarity.
  const std::string source =
      "struct StreamPacket { int x; };\n"
      "void Deliver(StreamPacket pkt);\n";
  EXPECT_TRUE(AnalyzeSnippet("src/runtime/cold.cc", source).empty());
  EXPECT_TRUE(AnalyzeSnippet("tests/some_test.cc", source).empty());
  EXPECT_EQ(AnalyzeSnippet("src/net/hot.cc", source).size(), 1u);
  EXPECT_EQ(AnalyzeSnippet("src/memsys/hot.cc", source).size(), 1u);
}

TEST(LintWalk, CollectSkipsFixtureAndBuildDirectories) {
  // Walking the real tests/ directory must not pick up either fixture dir.
  const auto files = frontend::CollectFiles(PROJECT_SOURCE_DIR, {"tests"});
  EXPECT_FALSE(files.empty());
  for (const auto& f : files) {
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
    EXPECT_EQ(f.find("analyzer_fixtures"), std::string::npos) << f;
    EXPECT_EQ(f.find("CMakeFiles"), std::string::npos) << f;
  }
}

}  // namespace
}  // namespace analyze
}  // namespace coyote
