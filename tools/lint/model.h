// Cross-TU project model for aneci_lint's concurrency-discipline suite.
//
// The tokenizer gives us lexical streams; this layer extracts just enough
// structure from them to reason across translation units:
//
//   * classes/structs, their std::mutex members, members annotated
//     ANECI_GUARDED_BY, and methods annotated ANECI_REQUIRES /
//     ANECI_ACQUIRE / ANECI_RELEASE / ANECI_EXCLUDES
//     (src/util/thread_annotations.h),
//   * function definitions with their body token ranges, attributed to a
//     class either lexically (defined inside the class body) or by the
//     `Type Class::Name(` qualifier,
//   * a per-function summary from one lexical walk of each body: mutexes
//     acquired via lock_guard / scoped_lock / unique_lock / .lock(), the
//     nesting (lock-order) edges those acquisitions imply, call sites with
//     the set of mutexes held at the call, and banned-nondeterminism call
//     sites.
//
// Three checks consume the model (rationale and limits in
// docs/static_analysis.md):
//
//   guarded-member-access   a read/write of an ANECI_GUARDED_BY member in a
//                           method of its class without the guard held;
//                           also calling an ANECI_REQUIRES method without
//                           the lock, or an ANECI_EXCLUDES method with it
//   lock-order-cycle        any cycle in the cross-file mutex acquisition
//                           graph (nested lock scopes, ANECI_REQUIRES
//                           context, and call-graph-propagated "may
//                           acquire" sets); a self-loop is a recursive
//                           acquisition of a non-recursive mutex
//   determinism-taint       a function reachable from a deterministic
//                           entry point (registers a
//                           MetricClass::kDeterministic metric, or is/calls
//                           ParallelFor[Chunks]) transitively calls the
//                           banned-nondeterminism set; upgrades the
//                           per-file textual ban to a call-graph property
//
// Deliberate scope limits (this is a linter, not a compiler): analysis is
// lexical and flow-insensitive apart from lock scopes; accesses through a
// pointer to ANOTHER object (`job->error`) are not checked (only bare and
// `this->` accesses inside methods of the declaring class); constructor and
// destructor bodies are exempt from guarded-member-access (the object is
// not yet / no longer shared); lambda bodies run later, so they start with
// an empty held-set — EXCEPT predicates passed to condition_variable
// wait/wait_for/wait_until, which run under the caller's lock and inherit
// it. The clang -Wthread-safety CI leg (tools/ci.sh) covers the
// flow-sensitive remainder on toolchains that have clang.
#ifndef ANECI_TOOLS_LINT_MODEL_H_
#define ANECI_TOOLS_LINT_MODEL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lint.h"
#include "tools/lint/tokenizer.h"

namespace aneci::lint {

/// What one class declares, merged across every file that declares members
/// of a class with this name (header + out-of-line definitions).
struct ClassInfo {
  /// Names of std::mutex / recursive_mutex / shared_mutex members.
  std::set<std::string> mutex_members;
  /// Guarded member name -> canonical mutex id of its guard.
  std::map<std::string, std::string> guarded;
  /// Method name -> canonical mutex ids from ANECI_REQUIRES(...).
  std::map<std::string, std::vector<std::string>> requires_held;
  /// Method name -> canonical mutex ids from ANECI_ACQUIRE(...).
  std::map<std::string, std::vector<std::string>> acquires_on_return;
  /// Method name -> canonical mutex ids from ANECI_RELEASE(...).
  std::map<std::string, std::vector<std::string>> releases;
  /// Method name -> canonical mutex ids from ANECI_EXCLUDES(...).
  std::map<std::string, std::vector<std::string>> excludes;
};

/// One input file. `tokens` must outlive the model.
struct SourceFile {
  std::string path;
  const TokenizedFile* tokens;
};

class ProjectModel {
 public:
  /// Builds the model and runs the per-function analysis. `files` is
  /// typically every file under src/ (policy: the concurrency suite only
  /// applies to library code; see lint.cc).
  explicit ProjectModel(const std::vector<SourceFile>& files);

  /// Each check appends its findings; all are deterministic in input order.
  void CheckGuardedMemberAccess(std::vector<Finding>* out) const;
  void CheckLockOrderCycle(std::vector<Finding>* out) const;
  void CheckDeterminismTaint(std::vector<Finding>* out) const;

  /// Introspection for tests.
  const std::map<std::string, ClassInfo>& classes() const { return classes_; }
  /// Canonical "from -> to" strings of every deduplicated lock-order edge.
  std::vector<std::string> lock_order_edges() const;

 private:
  struct Edge {
    std::string from, to;
    std::string file;
    int line;
  };
  struct CallSite {
    std::string name;         // bare callee name
    bool receiver_self;       // bare, this->, or OwnClass:: call
    bool receiver_object;     // x.name( / x->name( on a non-this object
    bool sync;                // false inside a non-predicate lambda body
    std::vector<std::string> held;  // canonical mutex ids held at the call
    int line;
  };
  struct BannedSite {
    std::string what;
    int line;
  };
  struct FunctionInfo {
    std::string name;        // bare name ("~Foo" for destructors)
    std::string class_name;  // "" for free functions
    std::string file;
    int line;
    bool ctor_dtor = false;
    /// Mutexes this function acquires synchronously (not inside a detached
    /// lambda), canonical ids.
    std::set<std::string> acquires;
    std::vector<Edge> edges;
    std::vector<CallSite> calls;
    std::vector<BannedSite> banned;
    bool det_root = false;
    std::string det_root_why;
  };

  std::string Qualified(const FunctionInfo& f) const;
  std::vector<int> ResolveCallees(const FunctionInfo& caller,
                                  const CallSite& call) const;

  void ParseClasses(const SourceFile& file);
  void ParseClassAnnotations(const SourceFile& file);
  void ParseFunctions(const SourceFile& file);
  void AnalyzeBody(const SourceFile& file, FunctionInfo* fn, size_t body_begin,
                   size_t body_end);
  void BuildLockGraph(std::vector<Edge>* out_edges) const;

  std::map<std::string, ClassInfo> classes_;
  std::vector<FunctionInfo> functions_;
  /// Bare name -> indices into functions_.
  std::map<std::string, std::vector<int>> by_name_;
  /// Per file parsed in ParseClasses: class body spans, used to attribute
  /// in-class method definitions to their class.
  std::map<std::string, std::vector<std::pair<std::string, std::pair<size_t, size_t>>>>
      class_spans_;
  /// Findings produced while walking bodies (guarded-member-access).
  std::vector<Finding> access_findings_;
};

}  // namespace aneci::lint

#endif  // ANECI_TOOLS_LINT_MODEL_H_
