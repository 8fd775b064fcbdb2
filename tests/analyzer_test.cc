// Tests for the context rules of the coyote-verify static analyzer
// (tools/coyote_analyze): callback-blocking, sim-nondet, cross-shard and
// guard-state.
//
// Fixture files on disk (tests/analyzer_fixtures/, a directory the repo-wide
// walk skips) prove each context rule fires *through* helper frames and
// reports the correct call-chain trace. In-memory sources pin down the
// test-context exemption, unordered aliases and primitive-site suppressions.
// A golden clean-repo test pins the repo-wide report of every rule, which
// the lint_repo and analyze_repo gates and the CI artifact rely on. The
// per-file rules are tested in lint_test.cc.

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

#ifndef ANALYZER_FIXTURE_DIR
#error "ANALYZER_FIXTURE_DIR must be defined by the build"
#endif
#ifndef PROJECT_SOURCE_DIR
#error "PROJECT_SOURCE_DIR must be defined by the build"
#endif

const Finding* FindAtLine(const std::vector<Finding>& findings, const std::string& rule,
                          uint32_t line) {
  for (const Finding& f : findings) {
    if (f.rule == rule && f.line == line) {
      return &f;
    }
  }
  return nullptr;
}

std::vector<Finding> AnalyzeFixture(const std::string& name) {
  return Analyze(IndexPaths(ANALYZER_FIXTURE_DIR, {name}), Options{});
}

bool HasRuleAtLine(const std::vector<Finding>& findings, const std::string& rule,
                   uint32_t line) {
  return FindAtLine(findings, rule, line) != nullptr;
}

bool AnyAtLine(const std::vector<Finding>& findings, uint32_t line) {
  return std::any_of(findings.begin(), findings.end(),
                     [line](const Finding& f) { return f.line == line; });
}

bool ChainContains(const Finding& f, const std::string& needle) {
  return f.ChainString().find(needle) != std::string::npos;
}

// --- Rule fixtures: detection with correct interprocedural traces -----------

TEST(AnalyzerFixtures, BlockingViaHelperIsTracedThreeFramesDeep) {
  const auto findings = AnalyzeFixture("blocking_via_helper.cc");
  const Finding* f = FindAtLine(findings, "callback-blocking", 15);
  ASSERT_NE(f, nullptr) << FormatReport(findings);
  EXPECT_NE(f->message.find("'sleep_for()' blocks"), std::string::npos) << f->message;
  // callback root lambda -> Commit -> FlushToDisk -> sleep_for: four links.
  ASSERT_EQ(f->chain.size(), 4u) << f->ChainString();
  EXPECT_NE(f->chain[0].find("callback root"), std::string::npos) << f->chain[0];
  EXPECT_NE(f->chain[0].find("lambda@25"), std::string::npos) << f->chain[0];
  EXPECT_NE(f->chain[1].find("Commit"), std::string::npos) << f->chain[1];
  EXPECT_NE(f->chain[2].find("FlushToDisk"), std::string::npos) << f->chain[2];
  EXPECT_NE(f->chain[3].find("sleep_for"), std::string::npos) << f->chain[3];
}

TEST(AnalyzerFixtures, NondetIsFoundThreeCallsDeep) {
  const auto findings = AnalyzeFixture("nondet_two_deep.cc");
  const Finding* rand_f = FindAtLine(findings, "sim-nondet", 22);
  ASSERT_NE(rand_f, nullptr) << FormatReport(findings);
  EXPECT_NE(rand_f->message.find("'rand()' nondeterministic call"), std::string::npos)
      << rand_f->message;
  // lambda -> Draw -> Reseed -> rand(): the primitive is three calls from the
  // root, which is exactly what a line-at-a-time lint cannot see.
  EXPECT_TRUE(ChainContains(*rand_f, "Draw")) << rand_f->ChainString();
  EXPECT_TRUE(ChainContains(*rand_f, "Reseed")) << rand_f->ChainString();

  const Finding* iter_f = FindAtLine(findings, "sim-nondet", 15);
  ASSERT_NE(iter_f, nullptr) << FormatReport(findings);
  EXPECT_NE(iter_f->message.find("unordered container 'table_'"), std::string::npos)
      << iter_f->message;
  EXPECT_TRUE(ChainContains(*iter_f, "Sum")) << iter_f->ChainString();
}

TEST(AnalyzerFixtures, UnguardedStateInventoryChecksGuardsAndReasons) {
  const auto findings = AnalyzeFixture("unguarded_state.cc");
  // FlowTable registers no guard: flagged.
  const Finding* unguarded = FindAtLine(findings, "guard-state", 12);
  ASSERT_NE(unguarded, nullptr) << FormatReport(findings);
  EXPECT_NE(unguarded->message.find("FlowTable::rows_"), std::string::npos)
      << unguarded->message;
  EXPECT_NE(unguarded->message.find("registers no sim::AccessGuard"), std::string::npos)
      << unguarded->message;
  EXPECT_TRUE(ChainContains(*unguarded, "Record")) << unguarded->ChainString();
  // ScratchPad suppresses without a reason: still flagged, asking for one.
  const Finding* no_reason = FindAtLine(findings, "guard-state", 20);
  ASSERT_NE(no_reason, nullptr) << FormatReport(findings);
  EXPECT_NE(no_reason->message.find("requires a reason"), std::string::npos)
      << no_reason->message;
  // AuditLog suppresses with a written reason: clean.
  EXPECT_FALSE(AnyAtLine(findings, 29)) << FormatReport(findings);
}

TEST(AnalyzerFixtures, CrossShardDirectAccessFlaggedMailboxAllowed) {
  const auto findings = AnalyzeFixture("cross_shard.cc");
  const Finding* shard_f = FindAtLine(findings, "cross-shard", 18);
  ASSERT_NE(shard_f, nullptr) << FormatReport(findings);
  EXPECT_NE(shard_f->message.find("'.shard()'"), std::string::npos) << shard_f->message;
  EXPECT_TRUE(ChainContains(*shard_f, "StealWork")) << shard_f->ChainString();
  const Finding* schedule_on_f = FindAtLine(findings, "cross-shard", 22);
  ASSERT_NE(schedule_on_f, nullptr) << FormatReport(findings);
  EXPECT_TRUE(ChainContains(*schedule_on_f, "MirrorEvent")) << schedule_on_f->ChainString();
  // ForwardEvent goes through Post — the sanctioned mailbox path stays clean.
  EXPECT_FALSE(AnyAtLine(findings, 26)) << FormatReport(findings);
}

TEST(AnalyzerFixtures, OrchestratorContextGuardsStateMapsAndMailboxOnly) {
  const auto findings = AnalyzeFixture("orchestrator_ctx.cc");
  // The bolt-on ledger mutates from the heartbeat callback with no guard.
  const Finding* ledger = FindAtLine(findings, "guard-state", 54);
  ASSERT_NE(ledger, nullptr) << FormatReport(findings);
  EXPECT_NE(ledger->message.find("EvacLedger::pending_"), std::string::npos)
      << ledger->message;
  EXPECT_TRUE(ChainContains(*ledger, "ArmControlPlane")) << ledger->ChainString();
  EXPECT_TRUE(ChainContains(*ledger, "Record")) << ledger->ChainString();
  // The rebalance helper bypasses the mailbox with .shard().
  const Finding* drain = FindAtLine(findings, "cross-shard", 63);
  ASSERT_NE(drain, nullptr) << FormatReport(findings);
  EXPECT_TRUE(ChainContains(*drain, "Drain")) << drain->ChainString();
  // The control plane's own state maps register an AccessGuard member: both
  // handler mutations are clean, as is the sanctioned Post forward.
  EXPECT_FALSE(AnyAtLine(findings, 37)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 41)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 67)) << FormatReport(findings);
  EXPECT_EQ(findings.size(), 2u) << FormatReport(findings);
}

TEST(AnalyzerFixtures, TieringContextFlagsUnguardedHeatSamplerOnly) {
  const auto findings = AnalyzeFixture("tiering_ctx.cc");
  // The bolt-on sampler mutates from the epoch-tick callback with no guard.
  const Finding* sampler = FindAtLine(findings, "guard-state", 47);
  ASSERT_NE(sampler, nullptr) << FormatReport(findings);
  EXPECT_NE(sampler->message.find("HeatSampler::samples_"), std::string::npos)
      << sampler->message;
  EXPECT_TRUE(ChainContains(*sampler, "ArmTiering")) << sampler->ChainString();
  EXPECT_TRUE(ChainContains(*sampler, "Sample")) << sampler->ChainString();
  // The tiering service's own heat-table mutations are covered by its
  // registered AccessGuard: both the access-stream and decay writes are clean.
  EXPECT_FALSE(AnyAtLine(findings, 29)) << FormatReport(findings);
  EXPECT_FALSE(AnyAtLine(findings, 34)) << FormatReport(findings);
  EXPECT_EQ(findings.size(), 1u) << FormatReport(findings);
}

// --- Golden clean reports ---------------------------------------------------

TEST(AnalyzerFixtures, CleanFixtureProducesTheGoldenEmptyReport) {
  const auto findings = AnalyzeFixture("clean.cc");
  EXPECT_EQ(FormatReport(findings), "coyote_analyze: 0 findings\n");
}

TEST(AnalyzerRepo, WholeTreeIsCleanAndReportIsStable) {
  // The same walk the analyze_repo ctest gate and the CI artifact use: every
  // rule over src/, tests/, bench/, examples/ and the analyzer itself. Every
  // real violation is either fixed or carries a suppression, so the report
  // is byte-stable: the golden empty report.
  const auto files = frontend::CollectFiles(PROJECT_SOURCE_DIR,
                                            {"src", "tests", "bench", "examples", "tools"});
  ASSERT_GT(files.size(), 100u);
  const auto findings = Analyze(IndexPaths(PROJECT_SOURCE_DIR, files), Options{});
  EXPECT_EQ(FormatReport(findings), "coyote_analyze: 0 findings\n") << FormatReport(findings);
}

const char kSinkDecl[] =
    "class E {\n public:\n  void ScheduleAt(long when, void (*fn)());\n};\n";

// --- Test context -----------------------------------------------------------

TEST(AnalyzerTestContext, HarnessMethodsAreNotCallGraphNodes) {
  // A src/ callback calls p.Finish(); the receiver type is unknown, so the
  // call resolves by name to every Finish() in the graph. Only the one in
  // src/ is a node: a bench/ harness method of that name that takes a lock
  // is never reached.
  const std::string callback =
      std::string(kSinkDecl) +
      "struct Peer;\n"
      "void Arm(E& e, Peer& p) { e.ScheduleAt(1, [&p] { p.Finish(); }); }\n";
  const std::string harness =
      "struct Stack {\n"
      "  void Finish() { std::lock_guard<int> hold(mu_); }\n"
      "  int mu_;\n"
      "};\n";
  const auto in_bench =
      Analyze(BuildIndex({{"src/node/arm.cc", callback}, {"bench/bench_stack.cc", harness}}),
              Options{});
  EXPECT_TRUE(in_bench.empty()) << FormatReport(in_bench);

  // The same method under src/ is simulation code and is reached.
  const auto in_src =
      Analyze(BuildIndex({{"src/node/arm.cc", callback}, {"src/node/stack.cc", harness}}),
              Options{});
  ASSERT_EQ(in_src.size(), 1u) << FormatReport(in_src);
  EXPECT_EQ(in_src[0].rule, "callback-blocking");
  EXPECT_EQ(in_src[0].file, "src/node/stack.cc");
  EXPECT_TRUE(ChainContains(in_src[0], "Finish")) << in_src[0].ChainString();
}

TEST(AnalyzerSymbols, UnorderedAliasIteratedFromCallbackIsSimNondet) {
  // The alias name joins the project-wide unordered table, so iterating a
  // temporary of the alias type in callback context is nondeterministic.
  const std::vector<SourceFile> files = {
      {"src/node/table.cc",
       std::string(kSinkDecl) +
           "using PeerTable = std::unordered_map<int, int>;\n"
           "int Sum() {\n"
           "  int n = 0;\n"
           "  for (const auto& [k, v] : PeerTable{{1, 2}}) { n += v; }\n"
           "  return n;\n"
           "}\n"
           "void Arm(E& e) { e.ScheduleAt(1, [] { Sum(); }); }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  const Finding* f = FindAtLine(findings, "sim-nondet", 8);
  ASSERT_NE(f, nullptr) << FormatReport(findings);
  EXPECT_NE(f->message.find("unordered container 'PeerTable'"), std::string::npos)
      << f->message;
  EXPECT_TRUE(ChainContains(*f, "Sum")) << f->ChainString();
  // The per-file rule flags the same line without any context.
  EXPECT_TRUE(HasRuleAtLine(findings, "unordered-iter", 8)) << FormatReport(findings);
}

TEST(AnalyzerSymbols, VariableOfUnorderedAliasIteratedFromCallbackIsSimNondet) {
  const std::vector<SourceFile> files = {
      {"src/node/table.cc",
       std::string(kSinkDecl) +
           "using Table = std::unordered_map<int, int>;\n"
           "int Sum() {\n"
           "  Table t;\n"
           "  int n = 0;\n"
           "  for (const auto& kv : t) { n += kv.second; }\n"
           "  return n;\n"
           "}\n"
           "void Arm(E& e) { e.ScheduleAt(1, [] { Sum(); }); }\n"}};
  const auto findings = Analyze(BuildIndex(files), Options{});
  const Finding* f = FindAtLine(findings, "sim-nondet", 9);
  ASSERT_NE(f, nullptr) << FormatReport(findings);
  EXPECT_NE(f->message.find("unordered container 't'"), std::string::npos) << f->message;
  EXPECT_TRUE(ChainContains(*f, "Sum")) << f->ChainString();
}

// --- Suppressions at the primitive site -------------------------------------

TEST(AnalyzerSuppression, PrimitiveSiteTagSilencesTheWholeChain) {
  const std::vector<SourceFile> files = {
      {"alpha.cc", std::string(kSinkDecl) +
                       "void Helper() {\n"
                       "  usleep(5);  // lint: callback-blocking-ok boot-time settle\n"
                       "}\n"
                       "void Arm(E& e) { e.ScheduleAt(1, [] { Helper(); }); }\n"}};
  // usleep also trips the per-file `blocking` rule, whose own tag is
  // blocking-ok; this test is about the context rule's tag only.
  Options only_callback_blocking;
  only_callback_blocking.rules = {"callback-blocking"};
  const auto findings = Analyze(BuildIndex(files), only_callback_blocking);
  EXPECT_TRUE(findings.empty()) << FormatReport(findings);
}

TEST(AnalyzerSuppression, RuleFilterRunsOnlySelectedRules) {
  const std::vector<SourceFile> files = {
      {"alpha.cc", std::string(kSinkDecl) +
                       "void Arm(E& e) { e.ScheduleAt(1, [] { usleep(5); rand(); }); }\n"}};
  const Index index = BuildIndex(files);
  Options only_nondet;
  only_nondet.rules = {"sim-nondet"};
  const auto findings = Analyze(index, only_nondet);
  ASSERT_EQ(findings.size(), 1u) << FormatReport(findings);
  EXPECT_EQ(findings[0].rule, "sim-nondet");
}

TEST(AnalyzerRules, AllTwelveRulesAreRegisteredWithSuppressions) {
  std::vector<std::string> ids;
  for (const RuleInfo& r : Rules()) {
    ids.push_back(r.id);
    EXPECT_FALSE(r.suppression.empty()) << r.id;
    EXPECT_FALSE(r.summary.empty()) << r.id;
  }
  const std::vector<std::string> expected = {
      "nondet",          "unordered-iter", "raw-alloc",  "blocking",
      "wall-clock",      "header-guard",   "using-ns-header", "hot-copy",
      "callback-blocking", "sim-nondet",   "cross-shard", "guard-state"};
  EXPECT_EQ(ids, expected);
}

}  // namespace
}  // namespace analyze
}  // namespace coyote
