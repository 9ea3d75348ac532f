// Pass 1: exactness guards (rules prefixed raw-/fastpath-/narrowing/guard-).
//
// Kernel-surface files (src/lattice, src/mapping, src/exact, the hot search
// and systolic translation units, and the packed-coordinate headers)
// must route every int64 computation through the CheckedInt/BigInt exact
// scalars; raw machine-word arithmetic is allowed only inside functions that
// carry a RAW_FASTPATH marker naming their BigInt-restart fallback
// (or a bounded-range argument).  See docs/STATIC_ANALYSIS.md.
//
// The pass is interprocedural and runs in two phases:
//   phase 1 (analyze)   per-file: raw-arith, narrowing and annotation
//                       grammar checks; collects a FunctionSummary for every
//                       function body and a CallSite for every call.
//   phase 2 (finalize)  run-global: propagates fallback reachability over
//                       the call graph (a call to a fallback-guarded fast
//                       path is safe only where its exact restart is still
//                       reachable) and resolves fallback symbols against the
//                       identifiers of the WHOLE analyzed file set.
//
// Rules:
//   raw-arith               binary/compound +, -, * (or unary -) on a raw
//                           signed-64 operand outside an annotated function
//   fastpath-annotation     RAW_FASTPATH marker malformed, attached
//                           to no function, or naming a fallback symbol that
//                           appears nowhere in the analyzed file set
//   narrowing               cast to a narrower integer type (static_cast or
//                           C-style) or an `int` variable initialized from a
//                           raw 64-bit expression, without a
//                           NARROWING_OK escape
//   unguarded-fastpath-call call to a fallback-guarded fast path from a
//                           context that can reach neither the named exact
//                           fallback nor an exact::with_fallback frame
//   bounded-breach          a bounded: fast path (claims overflow-freedom)
//                           invoking a fallback-guarded fast path whose
//                           restart it cannot provide
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "diagnostics.hpp"
#include "file_model.hpp"

namespace sysmap::lint {

/// Per-function interprocedural summary (phase 1 output).  Summaries are
/// merged across translation units by function name, which is exact for
/// this codebase's unique kernel entry points and conservative (never a
/// false positive on a clean tree) for overloaded names.
struct FunctionSummary {
  bool fastpath = false;   ///< carries a well-formed RAW_FASTPATH
  bool bounded = false;    ///< ... with a bounded: clause
  bool fallback = false;   ///< ... with a fallback: clause (may overflow and
                           ///< restart: every call needs the fallback live)
  std::string fallback_symbol;
  std::set<std::string> calls;  ///< names this function's body invokes
};

struct CallSite {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string caller;  ///< innermost named enclosing function
  std::string callee;
  bool in_with_fallback = false;  ///< inside an exact::with_fallback(...)
  /// Enclosing-function chain info (innermost to outermost merged).
  bool caller_fastpath_fallback = false;
  bool caller_fastpath_bounded = false;
  std::vector<std::string> enclosing;  ///< names of all enclosing bodies
};

/// A fallback: annotation whose symbol must resolve in phase 2.
struct PendingFallback {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;
  std::string symbol;
};

class GuardsPass {
 public:
  /// True for files under the exactness discipline (raw-arith/narrowing).
  /// Summaries and call sites are collected for every file regardless.
  static bool kernel_surface(const std::string& path);

  /// Phase 1 over one file.
  void analyze(const FileModel& m, std::vector<Diagnostic>& out);

  /// Phase 2 over everything collected so far.
  void finalize(std::vector<Diagnostic>& out);

 private:
  std::map<std::string, FunctionSummary> summaries_;
  std::vector<CallSite> call_sites_;
  std::vector<PendingFallback> pending_fallbacks_;
  std::set<std::string> global_identifiers_;
};

}  // namespace sysmap::lint
