// Shared pieces of the abftbench host-cost driver: the per-process run
// record every workload fills, wall-clock helpers, and the span recorder
// behind --trace.
//
// Every layer is measured from outside: a workload times calls into the
// public functions of one module (sim, memsim, os, abft, linalg, campaign,
// campaignd) and names the span or metric after that module. Nothing in
// src/ is instrumented for this benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"

namespace abftbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans recorded at layer boundaries (name, start, end, parent) into a
/// buffer preallocated at start-up and written once at exit as Chrome
/// trace_event JSON. A recorder built with capacity 0 is off: open() and
/// close() return at the first branch. Single-threaded by design -- spans
/// are opened only on the workload's main thread.
class Spans {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit Spans(std::size_t capacity);

  [[nodiscard]] bool on() const { return capacity_ > 0; }
  /// Open a span under the innermost open one. `name` must be a string
  /// literal (only the pointer is stored).
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  /// Writes the spans, plus a count of those that did not fit the
  /// preallocated buffer (`spans_dropped`).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  std::size_t capacity_;
  Clock::time_point origin_;
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op when the recorder is off.
class Span {
 public:
  Span(Spans& s, const char* name)
      : s_(s), id_(s.on() ? s.open(name) : Spans::kNone) {}
  ~Span() {
    if (id_ != Spans::kNone) s_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& s_;
  std::uint32_t id_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One workload process: its inputs and everything it measured. run.py
/// turns the raw samples into medians; the driver only times and checks.
struct Run {
  // --- inputs -------------------------------------------------------------
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;  ///< tiny sizes, one repetition of everything
  bool traced = false; ///< also take the per-layer split (--trace)
  std::string campaignd;  ///< daemon binary (daemon-small-jobs)
  std::string work_dir;   ///< scratch space inside the build tree
  Spans* spans = nullptr;

  // --- outputs ------------------------------------------------------------
  std::vector<double> setup_s;  ///< one sample per repeated set-up
  /// Operation times in ms, one sample per operation for each named part.
  /// An operation made of several calls (native-ft's seven FT kernels,
  /// campaign-storm's four campaigns) records each call as its own part;
  /// run.py sums the parts' medians, so a throughput dip on the shared host
  /// during one call is discarded instead of moving the whole operation.
  std::vector<std::pair<std::string, std::vector<double>>> op_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> detail;  ///< named end-to-end figures for the report
  std::vector<Metric> layers;  ///< per-layer metrics (traced runs only)

  /// Count one checked operation; a false `ok` marks it failed.
  void check(bool ok, const std::string& what);
  void add_op(const std::string& part, double ms);
  [[nodiscard]] const std::vector<double>& op_samples(
      const std::string& part) const;
  void add_detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  /// Keep repeating the set-up: at least 3 times and until 2 s of it has
  /// been timed (at most 1000), so a millisecond set-up still gets a median
  /// over hundreds of samples, and a slow stretch of the shared host of up
  /// to a second or so covers a minority of them.
  [[nodiscard]] bool more_setup() const {
    if (smoke) return setup_s.empty();
    double spent = 0.0;
    for (double s : setup_s) spent += s;
    return setup_s.size() < 3 || (spent < 2.0 && setup_s.size() < 1000);
  }
  /// Keep timing operations: at least `min_ops`, then as long as one more
  /// operation of the mean length so far still ends within `seconds` of
  /// `start`, so a run measures for `seconds` and does not overshoot by
  /// most of an operation (smoke runs stop after one).
  [[nodiscard]] bool more(Clock::time_point start, std::size_t done,
                          std::size_t min_ops) const {
    if (smoke) return done < 1;
    if (done < min_ops) return true;
    const double elapsed = seconds_since(start);
    return elapsed * (1.0 + 1.0 / static_cast<double>(done)) <= seconds;
  }
};

/// Copy a matrix into an equally shaped view (e.g. host inputs into
/// Session- or kernel-owned buffers).
inline void copy_into(abftecc::MatrixView dst, abftecc::ConstMatrixView src) {
  for (std::size_t j = 0; j < src.cols(); ++j)
    for (std::size_t i = 0; i < src.rows(); ++i) dst(i, j) = src(i, j);
}

/// Median of a sample (0 when empty); used where a workload needs an
/// intermediate statistic itself, e.g. to subtract two layer timings.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

void run_sim(Run& run);          // sim-dgemm, sim-cg
void run_campaign_storm(Run& run);
void run_daemon(Run& run);
void run_native(Run& run);

}  // namespace abftbench
