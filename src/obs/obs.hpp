// sysmap::obs -- deterministic, compile-away observability.
//
// Named counters, gauges and scoped spans for the engines (search,
// exact, support, systolic) and the front ends (CLI, benches).  The
// design constraints, in order:
//
//  1. ZERO COST WHEN OFF.  With the CMake option SYSMAP_OBS=OFF (the
//     default) every macro below expands to an empty statement -- no
//     atomics, no clock reads, no registration, nothing for the
//     optimizer to hoist.  The library entry points (snapshot, to_json)
//     still link and report obs_enabled = false, so front ends keep one
//     code path.
//
//  2. DETERMINISM PRESERVED.  Metrics are ADVISORY by contract: no value
//     recorded here may feed back into any search or simulation result.
//     Recording is per-thread (each thread owns a private cell block and
//     only ever writes its own cells), and the merge is commutative --
//     sums for counters/totals, max for peaks -- so the aggregate is
//     independent of thread interleaving and join order.  This is the
//     accumulation idiom the static analyzer's determinism pass accepts
//     (see docs/OBSERVABILITY.md and docs/STATIC_ANALYSIS.md).
//
//  3. TSAN-CLEAN.  Per-thread cells are relaxed atomics: the owning
//     thread's increments are uncontended (plain adds on x86), and a
//     concurrent snapshot() reads them with relaxed loads -- no data
//     race, no lock on the hot path.  Reads taken after a
//     support::fork_join returns observe every worker write (the thread
//     joins sequence them).
//
// Call sites use the macros (static interning, one registry probe per
// call site per process) or, for dynamically named metrics such as
// per-shard cache counters, intern() directly and keep the MetricId.
// The registry is bounded (kMaxMetrics); interning past the bound
// degrades to a no-op id instead of failing, so instrumentation can
// never take the process down.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef SYSMAP_OBS_ENABLED
#define SYSMAP_OBS_ENABLED 0
#endif

namespace sysmap::obs {

/// Compile-time switch mirror of the SYSMAP_OBS CMake option.
inline constexpr bool kEnabled = SYSMAP_OBS_ENABLED != 0;

enum class Kind {
  kCounter,  ///< monotone sum of deltas
  kGauge,    ///< sampled value: sum + sample count + peak (max)
  kSpan,     ///< scoped timer: total ns + invocations + peak ns
};

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = UINT32_MAX;

/// Registry capacity.  Metric names are static call sites plus a bounded
/// per-shard family; blowing this bound makes intern() return
/// kInvalidMetric (recording no-ops), never an error.
inline constexpr std::size_t kMaxMetrics = 512;

/// Resolves `name` to a stable id, registering it on first sight.  The
/// first registration fixes the kind.  Returns kInvalidMetric when obs
/// is compiled out or the registry is full.  Thread-safe.
MetricId intern(std::string_view name, Kind kind) noexcept;

/// Counter: total += delta, events += 1.  No-op on kInvalidMetric.
void add(MetricId id, std::uint64_t delta) noexcept;

/// Gauge sample: total += value, events += 1, peak = max(peak, value).
void gauge(MetricId id, std::uint64_t value) noexcept;

/// Span completion: total += ns, events += 1, peak = max(peak, ns).
/// Exposed for tests; normal call sites use the Span RAII type.
void span_ns(MetricId id, std::uint64_t ns) noexcept;

/// One merged metric in a snapshot.
struct Metric {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t total = 0;   ///< counter sum / gauge sum / span total ns
  std::uint64_t events = 0;  ///< increments / samples / invocations
  std::uint64_t peak = 0;    ///< gauge max / span max ns (counters: 0)
};

/// Merged view of every interned metric (live threads + retired ones),
/// sorted by name.  Zero-valued metrics are included so consumers see
/// the full catalog.  Values recorded before the last fork_join return
/// (or on the calling thread) are always visible; a thread still
/// mid-increment contributes whatever it has published so far.
std::vector<Metric> snapshot();

/// Zeroes every cell, live and retired (bench reps).  Callers must
/// quiesce their own workers first; concurrent increments may survive.
void reset();

/// {"obs_enabled": bool, "metrics": {name: {kind, total, events, peak}}}
/// -- names sorted, stable across runs with the same call sites.
std::string to_json(const std::vector<Metric>& metrics);
std::string snapshot_json();

/// Fixed-width human table, one metric per line ("" when empty).
std::string format_table(const std::vector<Metric>& metrics);

/// RAII scoped timer; records into a kSpan metric on destruction.
class Span {
 public:
  explicit Span(MetricId id) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricId id_;
  std::uint64_t t0_ = 0;
};

}  // namespace sysmap::obs

// ---- recording macros -----------------------------------------------------
//
// SYSMAP_COUNT("module.thing", n);   bump a counter by n
// SYSMAP_GAUGE("module.depth", v);   sample a gauge (sum/count/max)
// SYSMAP_SPAN("module.phase");       time the enclosing scope
//
// Each macro interns its name once per call site (thread-safe static
// init) and then costs one or two relaxed atomic ops on the calling
// thread's private cells.  With SYSMAP_OBS=OFF all three expand to an
// empty statement that does not evaluate its arguments.
#if SYSMAP_OBS_ENABLED

#define SYSMAP_OBS_CONCAT2(a, b) a##b
#define SYSMAP_OBS_CONCAT(a, b) SYSMAP_OBS_CONCAT2(a, b)

#define SYSMAP_COUNT(name, delta)                                          \
  do {                                                                     \
    static const ::sysmap::obs::MetricId sysmap_obs_count_id =             \
        ::sysmap::obs::intern((name), ::sysmap::obs::Kind::kCounter);      \
    ::sysmap::obs::add(sysmap_obs_count_id,                                \
                       static_cast<std::uint64_t>(delta));                 \
  } while (0)

#define SYSMAP_GAUGE(name, value)                                          \
  do {                                                                     \
    static const ::sysmap::obs::MetricId sysmap_obs_gauge_id =             \
        ::sysmap::obs::intern((name), ::sysmap::obs::Kind::kGauge);        \
    ::sysmap::obs::gauge(sysmap_obs_gauge_id,                              \
                         static_cast<std::uint64_t>(value));               \
  } while (0)

#define SYSMAP_SPAN(name)                                                  \
  static const ::sysmap::obs::MetricId SYSMAP_OBS_CONCAT(                  \
      sysmap_obs_span_id_, __LINE__) =                                     \
      ::sysmap::obs::intern((name), ::sysmap::obs::Kind::kSpan);           \
  const ::sysmap::obs::Span SYSMAP_OBS_CONCAT(sysmap_obs_span_, __LINE__)( \
      SYSMAP_OBS_CONCAT(sysmap_obs_span_id_, __LINE__))

#else  // SYSMAP_OBS_ENABLED

// sizeof() keeps the argument expressions type-checked but UNEVALUATED,
// so metric-only computations neither run nor warn as unused.
#define SYSMAP_COUNT(name, delta) \
  do {                            \
    (void)sizeof(delta);          \
  } while (0)
#define SYSMAP_GAUGE(name, value) \
  do {                            \
    (void)sizeof(value);          \
  } while (0)
#define SYSMAP_SPAN(name) \
  do {                    \
  } while (0)

#endif  // SYSMAP_OBS_ENABLED
