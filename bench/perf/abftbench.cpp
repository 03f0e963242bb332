// abftbench: one host-cost workload per process (see bench/perf/README.md).
//
//   abftbench --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//             [--smoke] [--campaignd <path>] [--work-dir <dir>]
//
// Prints one JSON line with the raw samples (set-up times, operation
// times), the output checks (attempted/failed), peak RSS, and -- with
// --trace -- the per-layer split plus a Chrome trace_event span file.
// bench/perf/run.py builds this binary, runs it, and reduces the samples.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "perf.hpp"

namespace abftbench {

Spans::Spans(std::size_t capacity)
    : capacity_(capacity), origin_(Clock::now()) {
  recs_.reserve(capacity);
  stack_.reserve(64);
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Spans::open(const char* name) {
  if (recs_.size() >= capacity_) {
    ++dropped_;
    return kNone;
  }
  const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
  recs_.push_back({name, parent, now_ns(), -1});
  const auto id = static_cast<std::uint32_t>(recs_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Spans::close(std::uint32_t id) {
  recs_[id].end_ns = now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Spans::write_chrome(const std::string& path) const {
  abftecc::obs::JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end_ns < 0) continue;  // never closed (a check threw mid-span)
    w.begin_object();
    w.field("name", r.name);
    w.field("ph", "X");
    w.field("pid", 1);
    w.field("tid", 1);
    w.field("ts", static_cast<double>(r.start_ns) * 1e-3);
    w.field("dur", static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
    w.key("args").begin_object();
    w.field("id", static_cast<std::uint64_t>(i));
    if (r.parent == kNone) {
      w.key("parent").null();
    } else {
      w.field("parent", static_cast<std::uint64_t>(r.parent));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.field("spans_dropped", dropped_);
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& s = w.str();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok;
}

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  // Keep the report bounded when a broken build fails every operation.
  if (failures.size() < 16) failures.push_back(what);
}

void Run::add_op(const std::string& part, double ms) {
  for (auto& [name, v] : op_ms) {
    if (name == part) {
      v.push_back(ms);
      return;
    }
  }
  op_ms.push_back({part, {ms}});
}

const std::vector<double>& Run::op_samples(const std::string& part) const {
  for (const auto& [name, v] : op_ms)
    if (name == part) return v;
  throw std::logic_error("no operation part " + part);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // p * n first: exact for integer p, where p / 100 * n can round up past
  // an integer rank (0.9 * 120 = 108.00000000000001).
  const double rank =
      std::ceil(p * static_cast<double>(v.size()) / 100.0 - 1e-9);
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload <sim-dgemm|sim-cg|campaign-storm|"
               "daemon-small-jobs|native-ft> --seed <n>\n"
               "          [--seconds <s>] [--trace <file>] [--smoke]\n"
               "          [--campaignd <path>] [--work-dir <dir>]\n",
               prog);
}

void write_metrics(abftecc::obs::JsonWriter& w, const char* key,
                   const std::vector<Metric>& ms) {
  w.key(key).begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_samples(abftecc::obs::JsonWriter& w, const char* key,
                   const std::vector<double>& v) {
  w.key(key).begin_array();
  for (double x : v) w.value(x);
  w.end_array();
}

std::uint64_t maxrss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

}  // namespace
}  // namespace abftbench

int main(int argc, char** argv) {
  using namespace abftbench;
  Run run;
  std::string trace_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--workload") == 0) {
      run.workload = value();
    } else if (std::strcmp(a, "--seed") == 0) {
      run.seed = std::strtoull(value(), nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(a, "--seconds") == 0) {
      run.seconds = std::strtod(value(), nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      trace_path = value();
    } else if (std::strcmp(a, "--smoke") == 0) {
      run.smoke = true;
    } else if (std::strcmp(a, "--campaignd") == 0) {
      run.campaignd = value();
    } else if (std::strcmp(a, "--work-dir") == 0) {
      run.work_dir = value();
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_seed || !(run.seconds > 0.0)) {
    usage(argv[0]);
    return 2;
  }
  run.traced = !trace_path.empty();
  Spans spans(run.traced ? std::size_t{1} << 16 : 0);
  run.spans = &spans;

  try {
    Span root(spans, "workload");
    if (run.workload == "sim-dgemm" || run.workload == "sim-cg") {
      run_sim(run);
    } else if (run.workload == "campaign-storm") {
      run_campaign_storm(run);
    } else if (run.workload == "daemon-small-jobs") {
      run_daemon(run);
    } else if (run.workload == "native-ft") {
      run_native(run);
    } else {
      std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                   run.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], run.workload.c_str(),
                 e.what());
    return 1;
  }
  if (run.traced && !spans.write_chrome(trace_path)) {
    std::fprintf(stderr, "%s: cannot write %s\n", argv[0], trace_path.c_str());
    return 1;
  }

  abftecc::obs::JsonWriter w;
  w.begin_object();
  w.field("workload", run.workload);
  w.field("seed", run.seed);
  w.field("smoke", run.smoke);
  w.field("attempted", run.attempted);
  w.field("failed", run.failed);
  w.key("failures").begin_array();
  for (const std::string& f : run.failures) w.value(f);
  w.end_array();
  write_samples(w, "setup_s", run.setup_s);
  w.key("op_ms").begin_object();
  for (const auto& [part, v] : run.op_ms) write_samples(w, part.c_str(), v);
  w.end_object();
  w.field("rss_kb", maxrss_kb(RUSAGE_SELF));
  w.field("rss_children_kb", maxrss_kb(RUSAGE_CHILDREN));
  write_metrics(w, "detail", run.detail);
  write_metrics(w, "layers", run.layers);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
