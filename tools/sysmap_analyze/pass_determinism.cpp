#include "pass_determinism.hpp"

#include <set>
#include <utility>

namespace sysmap::lint {

namespace {

struct FileDeterminism {
  const FileModel& m;
  std::vector<Diagnostic>& out;

  void diag(std::size_t ci, std::string rule, std::string message) {
    if (m.suppressed_at(m.tok(ci).line, AnnotationKind::kOrderIndependent)) {
      return;
    }
    Diagnostic d;
    d.file = m.path();
    d.line = m.tok(ci).line;
    d.col = m.tok(ci).col;
    d.pass = "determinism";
    d.rule = std::move(rule);
    d.message = std::move(message);
    d.function = m.enclosing_function_name(ci);
    out.push_back(std::move(d));
  }

  bool in_src() const {
    return m.path().find("src/") != std::string::npos;
  }

  // ---- unordered iteration -------------------------------------------------

  void check_unordered_iteration() {
    for (std::size_t ci = 0; ci + 2 < m.ntok(); ++ci) {
      // Range-for: for ( decl : expr ) with an unordered name in expr.
      if (m.is_ident(ci, "for") && m.is_punct(ci + 1, "(")) {
        std::size_t close = m.match_close(ci + 1, "(", ")");
        if (close >= m.ntok()) continue;
        std::size_t colon = close;
        std::size_t depth = 0;
        for (std::size_t j = ci + 2; j < close; ++j) {
          if (m.is_punct(j, "(") || m.is_punct(j, "[") || m.is_punct(j, "<")) {
            ++depth;
          }
          if (m.is_punct(j, ")") || m.is_punct(j, "]") || m.is_punct(j, ">")) {
            --depth;
          }
          if (depth == 0 && m.is_punct(j, ":") && !m.is_punct(j - 1, ":") &&
              (j + 1 >= close || !m.is_punct(j + 1, ":"))) {
            colon = j;
            break;
          }
        }
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (m.tok(j).kind == TokenKind::kIdentifier &&
              m.name_is_unordered_at(j, m.tok(j).text)) {
            diag(j, "nondet-unordered-iter",
                 "range-for over unordered container '" + m.tok(j).text +
                     "': element order is hash-dependent; copy into a "
                     "sorted container first, or annotate the line "
                     "SYSMAP_ORDER_INDEPENDENT with the reason the order "
                     "cannot leak into results");
            break;
          }
        }
        continue;
      }
      // Explicit iterator walk: X.begin() and friends.
      if (m.tok(ci).kind == TokenKind::kIdentifier &&
          m.name_is_unordered_at(ci, m.tok(ci).text) &&
          (m.is_punct(ci + 1, ".") || m.is_punct(ci + 1, "->")) &&
          ci + 3 < m.ntok() && m.is_punct(ci + 3, "(") &&
          (m.is_ident(ci + 2, "begin") || m.is_ident(ci + 2, "cbegin") ||
           m.is_ident(ci + 2, "rbegin"))) {
        diag(ci, "nondet-unordered-iter",
             "iterator walk of unordered container '" + m.tok(ci).text +
                 "': element order is hash-dependent; copy into a sorted "
                 "container first, or annotate the line "
                 "SYSMAP_ORDER_INDEPENDENT with the reason the order "
                 "cannot leak into results");
      }
    }
  }

  // ---- shared accumulators in fork-join callbacks --------------------------

  /// True when the first use of `name` inside (open, close) before `at`
  /// looks like a local declaration (preceded by a type-ish token).
  bool declared_locally(std::size_t open, std::size_t at,
                        const std::string& name) const {
    for (std::size_t j = open + 1; j < at; ++j) {
      if (!m.is_ident(j, name)) continue;
      if (j == 0) return false;
      const Token& prev = m.tok(j - 1);
      if (prev.kind == TokenKind::kIdentifier) return true;  // `T name`
      if (prev.kind == TokenKind::kPunct &&
          (prev.text == ">" || prev.text == "&" || prev.text == "*")) {
        return true;  // `vector<T> name`, `T& name`, `T* name`
      }
      return false;  // first use is a plain read/write: captured
    }
    return false;
  }

  void check_callback_range(std::size_t body_open, std::size_t body_close) {
    static const std::set<std::string, std::less<>> rmw_ops = {
        "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="};
    for (std::size_t ci = body_open + 1; ci < body_close; ++ci) {
      const Token& t = m.tok(ci);
      std::size_t name_ci = m.ntok();
      if (t.kind == TokenKind::kIdentifier && ci + 1 < body_close) {
        const Token& nxt = m.tok(ci + 1);
        if (nxt.kind == TokenKind::kPunct &&
            (rmw_ops.count(nxt.text) || nxt.text == "++" ||
             nxt.text == "--")) {
          name_ci = ci;
        }
      }
      if (t.kind == TokenKind::kPunct && (t.text == "++" || t.text == "--") &&
          ci + 1 < body_close &&
          m.tok(ci + 1).kind == TokenKind::kIdentifier &&
          (ci + 2 >= body_close || !m.is_punct(ci + 2, "["))) {
        name_ci = ci + 1;
      }
      if (name_ci >= m.ntok()) continue;
      const std::string& name = m.tok(name_ci).text;
      if (m.is_keyword(name)) continue;
      // Indexed writes (per-worker slots) and member accesses are the
      // sanctioned patterns; only a bare captured scalar is flagged.
      if (name_ci > 0) {
        const Token& prev = m.tok(name_ci - 1);
        if (prev.kind == TokenKind::kPunct &&
            (prev.text == "." || prev.text == "->" || prev.text == "]")) {
          continue;
        }
      }
      if (name_ci + 1 < m.ntok() && m.is_punct(name_ci + 1, "[")) continue;
      if (m.name_is_atomic_at(name_ci, name)) continue;
      if (declared_locally(body_open, name_ci, name)) continue;
      diag(name_ci, "nondet-shared-accum",
           "read-modify-write of captured non-atomic '" + name +
               "' inside a fork-join callback: racy and "
               "worker-count-dependent; use std::atomic, a per-worker slot "
               "indexed by the worker id, or annotate the line "
               "SYSMAP_ORDER_INDEPENDENT with why this cannot race");
    }
  }

  void check_shared_accumulators() {
    for (std::size_t ci = 2; ci + 1 < m.ntok(); ++ci) {
      // fork_join( ... ) or pool.run( ... ) — the fork-join callback
      // boundary.
      const bool pool_run =
          m.is_ident(ci, "run") &&
          (m.is_punct(ci - 1, ".") || m.is_punct(ci - 1, "->"));
      if (!pool_run && !m.is_ident(ci, "fork_join")) continue;
      if (!m.is_punct(ci + 1, "(")) continue;
      std::size_t close = m.match_close(ci + 1, "(", ")");
      if (close >= m.ntok()) continue;
      // Every by-reference-capturing lambda inside the argument list.
      for (std::size_t j = ci + 2; j < close; ++j) {
        if (!m.is_punct(j, "[")) continue;
        std::size_t cap_close = m.match_close(j, "[", "]");
        if (cap_close >= close) continue;
        bool by_ref = false;
        for (std::size_t k = j + 1; k < cap_close; ++k) {
          if (m.is_punct(k, "&")) by_ref = true;
        }
        // Find the lambda body '{' (skip an optional parameter list).
        std::size_t b = cap_close + 1;
        if (b < close && m.is_punct(b, "(")) {
          b = m.match_close(b, "(", ")") + 1;
        }
        while (b < close && !m.is_punct(b, "{")) ++b;
        if (b >= close) continue;
        std::size_t body_close = m.match_close(b, "{", "}");
        if (body_close >= m.ntok()) continue;
        if (by_ref) check_callback_range(b, body_close);
        j = body_close;
      }
    }
  }

  // ---- pointer/hash-order comparators --------------------------------------

  void check_comparators() {
    static const std::set<std::string, std::less<>> sort_family = {
        "sort",         "stable_sort", "nth_element",
        "partial_sort", "min_element", "max_element"};
    for (std::size_t ci = 0; ci + 1 < m.ntok(); ++ci) {
      if (m.tok(ci).kind != TokenKind::kIdentifier ||
          !sort_family.count(m.tok(ci).text) || !m.is_punct(ci + 1, "(")) {
        continue;
      }
      std::size_t close = m.match_close(ci + 1, "(", ")");
      if (close >= m.ntok()) continue;
      for (std::size_t j = ci + 2; j < close; ++j) {
        if (!m.is_punct(j, "[")) continue;  // comparator lambda
        std::size_t b = j;
        while (b < close && !m.is_punct(b, "{")) ++b;
        if (b >= close) continue;
        std::size_t body_close = m.match_close(b, "{", "}");
        if (body_close >= m.ntok()) continue;
        for (std::size_t k = b + 1; k < body_close; ++k) {
          const Token& t = m.tok(k);
          bool address_of =
              t.kind == TokenKind::kPunct && t.text == "&" &&
              k + 1 < body_close &&
              m.tok(k + 1).kind == TokenKind::kIdentifier &&
              (m.tok(k - 1).kind == TokenKind::kPunct ||
               (m.tok(k - 1).kind == TokenKind::kIdentifier &&
                m.is_keyword(m.tok(k - 1).text)));
          bool hashing = t.kind == TokenKind::kIdentifier && t.text == "hash";
          if (address_of || hashing) {
            diag(k, "nondet-comparator",
                 std::string(address_of ? "comparator orders by address"
                                        : "comparator orders by hash value") +
                     ": pointer and hash order differ run to run; compare a "
                     "stable key instead, or annotate the line "
                     "SYSMAP_ORDER_INDEPENDENT with why the tie is "
                     "harmless");
            k = body_close;
          }
        }
        j = body_close;
      }
    }
  }

  // ---- wall clock and randomness in engine code ----------------------------

  void check_clock_and_random() {
    if (!in_src()) return;  // timing in bench/tools/tests is their job
    static const std::set<std::string, std::less<>> clocks = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "timespec_get"};
    static const std::set<std::string, std::less<>> randoms = {
        "rand", "srand", "random_device", "drand48", "lrand48"};
    for (std::size_t ci = 0; ci < m.ntok(); ++ci) {
      const Token& t = m.tok(ci);
      if (t.kind != TokenKind::kIdentifier) continue;
      if (ci > 0 && (m.is_punct(ci - 1, ".") || m.is_punct(ci - 1, "->"))) {
        continue;  // member named like a clock (schedule.time etc.)
      }
      if (clocks.count(t.text)) {
        diag(ci, "nondet-clock",
             "wall-clock read '" + t.text +
                 "' in engine code: results must not depend on when they "
                 "are computed; hoist timing to bench/, or annotate the "
                 "line SYSMAP_ORDER_INDEPENDENT with why this cannot "
                 "reach a result");
      } else if (randoms.count(t.text)) {
        diag(ci, "nondet-random",
             "nondeterministic randomness '" + t.text +
                 "' in engine code: use a fixed-seed std::mt19937 so every "
                 "run replays, or annotate the line "
                 "SYSMAP_ORDER_INDEPENDENT with why this cannot reach a "
                 "result");
      }
    }
  }
};

}  // namespace

void DeterminismPass::analyze(const FileModel& m,
                              std::vector<Diagnostic>& out) {
  for (const Annotation& a : m.annotations()) {
    if (a.kind != AnnotationKind::kOrderIndependent || a.well_formed) continue;
    Diagnostic d;
    d.file = m.path();
    d.line = a.line;
    d.col = a.col;
    d.pass = "determinism";
    d.rule = "determinism-annotation";
    d.message = a.error;
    out.push_back(std::move(d));
  }
  FileDeterminism fd{m, out};
  fd.check_unordered_iteration();
  fd.check_shared_accumulators();
  fd.check_comparators();
  fd.check_clock_and_random();
}

}  // namespace sysmap::lint
