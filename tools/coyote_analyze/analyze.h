// coyote-verify static analyzer: the one static-analysis tool of the repo.
//
// It walks the tree once, lexes each file once (on the shared token-level
// frontend, tools/coyote_frontend) and runs two kinds of rule over the result.
//
// Per-file rules check one file at a time, on every file the walk finds:
//
//   nondet              no ambient randomness or wall-clock reads
//   unordered-iter      no iteration over unordered containers
//   raw-alloc           no raw new/delete outside allocator shims
//   blocking            no blocking syscalls or thread primitives
//   wall-clock          src/ keeps time with sim::Engine::Now()
//   header-guard        headers carry a canonical path-derived include guard
//   using-ns-header     no `using namespace` in headers
//   hot-copy            no by-value payload parameters on packet hot paths
//
// Context rules work on the whole repository. The analyzer indexes it into a
// function/method symbol table and call graph and classifies *contexts*:
// which functions are event-callback bodies (passed to
// sim::Engine::ScheduleAt/ScheduleAfter, ShardedEngine::Post, TimerWheel, or
// shard worker bodies) and which run in simulation context. It propagates
// those contexts transitively through the call graph and enforces:
//
//   callback-blocking   nothing reachable from an event callback may block:
//                       no sleeps, no mutex/condvar acquisition, no IO, no
//                       fork/wait. A callback that blocks stalls its whole
//                       shard's window and couples simulated time to wall
//                       time.
//   sim-nondet          no nondeterminism source reachable from simulation
//                       context, however many calls deep: wall-clock reads,
//                       rand(), pointer hashing, unordered-container
//                       iteration.
//   cross-shard         callbacks touch other shards only through the
//                       ShardedEngine mailbox API (Post); reaching for
//                       another shard's Engine via shard()/ScheduleOn from
//                       callback context bypasses the merge-order contract.
//   guard-state         every mutable member/global container mutated from
//                       callback context belongs to a class that registers a
//                       sim::AccessGuard, or carries an explicit suppression
//                       *with a written reason* — the static mirror of the
//                       runtime race detector's state inventory.
//
// Code under tests/, bench/, examples/ and tools/ is test context: the
// per-file rules check it, but its functions are not call-graph nodes, so a
// harness may sleep, print and read the wall clock.
//
// Context findings come with a full call-chain trace ("callback → A() → B()
// → std::unordered_map iteration"), so the report names not just the
// offending line but the path by which callback context reaches it. Every
// rule is suppressed with a `// lint: <tag>` comment; context-rule tags are
// written at the *primitive* site (the deepest frame of the chain).
//
// The analyzer is heuristic by design: it tokenizes, it does not compile. The
// function indexer understands namespaces, classes, out-of-line methods and
// lambdas; it does not do template instantiation or overload resolution, so
// calls resolve by name (same-class methods first, then free functions, then
// any method of that name — an over-approximation that errs toward flagging).
// The cases the heuristics get wrong are exactly what the per-site
// suppressions are for.

#ifndef TOOLS_COYOTE_ANALYZE_ANALYZE_H_
#define TOOLS_COYOTE_ANALYZE_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tools/coyote_frontend/frontend.h"

namespace coyote {
namespace analyze {

using frontend::SourceFile;

// --- Index entities ---------------------------------------------------------

// A call site inside a function body. `qualifier` is the explicit `Q::name`
// scope if written; `member` is true for `obj.name(...)` / `obj->name(...)`.
struct CallSite {
  std::string name;
  std::string qualifier;
  uint32_t line = 0;
  bool member = false;
};

// A context-rule primitive found in a function body (a blocking call, a
// nondeterminism source, a cross-shard access, a static container). The
// primitive only becomes a finding when the enclosing function is reached by
// the context the rule guards, so collection is unconditional at index time.
// `needs_reason` marks a site whose suppression tag demands a justification
// but carried none.
struct PrimitiveSite {
  std::string rule;  // "callback-blocking" | "sim-nondet" | "cross-shard" | "guard-state"
  uint32_t line = 0;
  std::string detail;
  bool needs_reason = false;
};

// A candidate container-iteration site: `name` is iterated here (range-for
// or .begin()/.equal_range()). Whether that is nondeterministic depends on
// the *project-wide* unordered-name table, so resolution happens at analyze
// time, after every file's declarations are merged.
struct IterSite {
  std::string name;
  uint32_t line = 0;
};

// A mutation of a container member (`entries_.insert(...)`, `table_[k] = v`)
// or of a namespace-scope container. Checked against the guard-state
// inventory when the mutating function runs in callback context.
struct MutationSite {
  std::string name;
  uint32_t line = 0;
  bool global = false;
};

struct FunctionInfo {
  std::string name;        // qualified: coyote::sim::Engine::Step, ...::lambda@42
  std::string short_name;  // Step, lambda@42
  std::string class_name;  // enclosing class or out-of-line qualifier ("" = free)
  std::string file;
  uint32_t line = 0;
  bool is_lambda = false;
  // "" (plain), "callback" (event-callback root: lambda passed to a schedule
  // sink, InlineCallback construction, shard worker body).
  std::string root;
  std::vector<CallSite> calls;
  std::vector<PrimitiveSite> primitives;
  std::vector<IterSite> iters;
  std::vector<MutationSite> mutations;
};

struct MemberInfo {
  std::string name;
  uint32_t line = 0;
  bool suppressed = false;    // carries `// lint: guard-ok ...`
  bool has_reason = false;    // ... with non-empty justification text
};

struct ClassInfo {
  std::string name;
  std::string file;
  uint32_t line = 0;
  bool has_access_guard = false;  // declares a sim::AccessGuard member
  std::vector<MemberInfo> container_members;
};

struct GlobalInfo {
  std::string name;
  uint32_t line = 0;
  bool suppressed = false;
  bool has_reason = false;
};

// Everything extracted from one file, plus its token stream for the
// per-file rules.
struct FileIndex {
  std::string path;
  frontend::LexedFile lexed;
  std::vector<FunctionInfo> functions;
  std::vector<ClassInfo> classes;
  std::vector<GlobalInfo> globals;
  // Names declared here with an unordered container type (variables,
  // members, functions returning one, `using` aliases).
  std::vector<std::string> unordered_names;
};

struct Index {
  std::vector<FileIndex> files;
};

// --- Analysis ---------------------------------------------------------------

// One finding. Per-file rules leave `chain` empty; context rules fill it with
// the interprocedural trace, outermost first: "<context> root F (file:line)",
// then one entry per call edge, ending at the primitive.
struct Finding {
  std::string file;
  uint32_t line = 0;
  std::string rule;
  std::string message;
  std::vector<std::string> chain;
  std::string ChainString() const;  // "callback → A() → B() → <detail>"
};

struct Options {
  // Empty: all rules. Otherwise only the listed rule ids run.
  std::vector<std::string> rules;
};

struct RuleInfo {
  std::string id;           // e.g. "nondet"
  std::string suppression;  // e.g. "nondet-ok" -> written as "// lint: nondet-ok"
  std::string summary;
};

// The rule table: the eight per-file rules, then the four context rules.
const std::vector<RuleInfo>& Rules();

// Lexes and indexes in-memory sources (function/lambda extraction, call
// sites, primitives, class inventories, unordered-container names).
Index BuildIndex(const std::vector<SourceFile>& files);

// Reads `relative_paths` under `root_dir` (frontend::ReadFiles) and indexes
// them. Paths in findings are relative to `root_dir`.
Index IndexPaths(const std::string& root_dir, const std::vector<std::string>& relative_paths);

// Runs every enabled rule: the per-file rules on each file (against the
// project-wide unordered-name table), then call-graph assembly, context
// propagation and the context rules. Findings are deterministic: ordered by
// (file, line, rule, message).
std::vector<Finding> Analyze(const Index& index, const Options& options);

// Formats findings the way the CLI and the CI artifact print them: one
// `path:line: [rule] message` line followed by indented chain lines, then a
// `coyote_analyze: N finding(s)` summary. Stable across runs and machines.
std::string FormatReport(const std::vector<Finding>& findings);

}  // namespace analyze
}  // namespace coyote

#endif  // TOOLS_COYOTE_ANALYZE_ANALYZE_H_
