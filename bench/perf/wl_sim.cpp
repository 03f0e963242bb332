// sim-dgemm and sim-cg: the simulator's host throughput (sim, os, memsim
// and the tap-instrumented abft kernels).
//
// The timed operation is one sim::run_kernel call on a fresh Session:
// input generation, Session build, the FT kernel through SimBackend, and
// teardown. With --trace the driver also splits that call by layer:
//   * it re-does run_kernel's work step by step -- the public input
//     generator, Session build plus buffer allocation/copy, and the FT
//     kernel's run(SimBackend&) wired as src/sim/platform.cpp wires it;
//   * it records the kernel's reference stream once through a recording
//     MemBackend on Session-allocated buffers and replays it through four
//     paths -- L1 only, L1+L2, a MemorySystem that carries the Session's
//     ECC ranges and region classifier, and TapContext::issue -- so each
//     layer's host cost is the difference of two replays.
// The stream is replayed chunk by chunk while the kernel runs (each path
// keeps its own state across chunks), so memory stays bounded even for
// sim-dgemm's 68M references.
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "abft/ft_cg.hpp"
#include "abft/ft_dgemm.hpp"
#include "common/backend.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "memsim/cache.hpp"
#include "memsim/config.hpp"
#include "memsim/system.hpp"
#include "os/os.hpp"
#include "perf.hpp"
#include "sim/backend.hpp"
#include "sim/platform.hpp"
#include "sim/tap.hpp"

namespace abftbench {
namespace {

using namespace abftecc;

sim::PlatformOptions platform(const Run& run) {
  sim::PlatformOptions opt;
  opt.strategy = sim::Strategy::kPartialChipkillSecded;
  opt.backend = BackendMode::kSimulated;
  opt.seed = run.seed;
  opt.cache_scale = 8;
  opt.dgemm_dim = run.smoke ? 64 : 320;
  opt.cg_dim = run.smoke ? 128 : 640;
  opt.cg_iterations = run.smoke ? 2 : 8;
  return opt;
}

abft::FtOptions ft_options(const sim::PlatformOptions& opt) {
  abft::FtOptions fo;
  fo.verify_period = opt.verify_period;
  fo.hardware_assisted = opt.hardware_assisted;
  return fo;
}

/// Kernel inputs from the seed, through the same public generators
/// Session::run uses.
struct HostInputs {
  Matrix a, b;              ///< DGEMM
  linalg::LinearSystem cg;  ///< CG
};

HostInputs generate(sim::Kernel kernel, const sim::PlatformOptions& opt) {
  Rng rng(opt.seed);
  HostInputs in;
  if (kernel == sim::Kernel::kDgemm) {
    in.a = Matrix::random(opt.dgemm_dim, opt.dgemm_dim, rng);
    in.b = Matrix::random(opt.dgemm_dim, opt.dgemm_dim, rng);
  } else {
    in.cg = linalg::make_spd_system(opt.cg_dim, rng);
  }
  return in;
}

/// A Session with the kernel's buffers allocated and filled the way
/// Session::run does it (src/sim/platform.cpp), ready for run_ft().
struct Prepared {
  sim::Session session;
  sim::Kernel kernel;
  sim::PlatformOptions opt;
  MatrixView a, b;                ///< DGEMM plain inputs / CG operator
  abft::FtDgemm::Buffers dgemm;   ///< DGEMM checksum buffers
  MatrixView vecs;                ///< CG x, r, z, p, q
  std::span<double> rhs;          ///< CG b
};

Prepared prepare(const sim::PlatformOptions& opt, sim::Kernel kernel,
                 const HostInputs& in) {
  Prepared p{sim::Session::Builder(opt).build(), kernel, opt, {}, {}, {},
             {}, {}};
  sim::Session& s = p.session;
  if (kernel == sim::Kernel::kDgemm) {
    const std::size_t n = opt.dgemm_dim;
    p.a = s.plain_matrix(n, n, "dgemm.A");
    p.b = s.plain_matrix(n, n, "dgemm.B");
    copy_into(p.a, in.a.view());
    copy_into(p.b, in.b.view());
    p.dgemm = {s.abft_matrix(n + 1, n, "dgemm.Ac"),
               s.abft_matrix(n, n + 1, "dgemm.Br"),
               s.abft_matrix(n + 1, n + 1, "dgemm.Cf")};
  } else {
    const std::size_t n = opt.cg_dim;
    p.a = s.abft_matrix(n, n, "cg.A");
    copy_into(p.a, in.cg.a.view());
    p.vecs = s.abft_matrix(n, 5, "cg.vectors");
    p.rhs = s.abft_vector(n, "cg.b");
    for (std::size_t i = 0; i < n; ++i) p.rhs[i] = in.cg.b[i];
    p.vecs.fill(0.0);
  }
  return p;
}

/// The FT kernel's run(Backend&) on prepared buffers; returns the status
/// Session::run would report.
template <MemBackend B>
abft::FtStatus run_ft(Prepared& p, B& be) {
  if (p.kernel == sim::Kernel::kDgemm) {
    abft::FtDgemm ft(ConstMatrixView(p.a), ConstMatrixView(p.b), p.dgemm,
                     ft_options(p.opt), &p.session.runtime());
    return ft.run(be);
  }
  linalg::CgOptions cg_opt;
  cg_opt.max_iterations = p.opt.cg_iterations;
  cg_opt.tolerance = 1e-30;
  abft::FtCg ft(p.a, p.rhs,
                {p.vecs.col(0), p.vecs.col(1), p.vecs.col(2), p.vecs.col(3),
                 p.vecs.col(4)},
                cg_opt, ft_options(p.opt), &p.session.runtime());
  const abft::FtCgResult res = ft.run(be);
  // A non-converged representative phase is the expected outcome.
  return res.status == abft::FtStatus::kNumericalFailure ? abft::FtStatus::kOk
                                                         : res.status;
}

/// Replays a recorded reference stream through the four paths, one chunk
/// at a time, timing each path over the same chunk.
class Replayer {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;

  /// `rec` owns the buffers the stream addresses (its TapContext replays
  /// host pointers); `mirror` made the same allocations in the same order,
  /// so its MemorySystem carries identical ECC ranges and classifier.
  Replayer(sim::Session& rec, sim::Session& mirror, Spans& spans)
      : spans_(spans),
        os_(rec.os()),
        tap_(rec.tap_context()),
        mem_(mirror.memory()),
        line_(mirror.memory().config().l1.line_bytes),
        l1_(mirror.memory().config().l1),
        l1b_(mirror.memory().config().l1),
        l2b_(mirror.memory().config().l2),
        anon_base_(mirror.memory().config().capacity_bytes),
        page_(mirror.memory().config().page_bytes) {
    refs_.reserve(kChunk);
    phys_.reserve(kChunk + kChunk / 8);
  }
  // RecordingTap holds this object's address.
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void push(const void* p, std::size_t n, memsim::AccessKind k) {
    refs_.push_back({p, static_cast<std::uint32_t>(n), k});
    if (refs_.size() == kChunk) flush();
  }

  void flush() {
    translate();
    {
      // Reading the recorded chunk costs every path the same; a pass that
      // only reads it is subtracted from the paths below.
      Span s(spans_, "replay.read_stream");
      const auto t0 = Clock::now();
      std::uint64_t sum = 0;
      for (const Phys& a : phys_)
        sum += a.addr ^ static_cast<std::uint64_t>(a.kind);
      stream_s += seconds_since(t0);
      sink_ = sink_ + sum;
    }
    {
      Span s(spans_, "memsim.replay_l1");
      const auto t0 = Clock::now();
      for (const Phys& a : phys_)
        l1_.access(a.addr / line_ * line_, a.kind != memsim::AccessKind::kRead);
      l1_s += seconds_since(t0);
    }
    {
      Span s(spans_, "memsim.replay_l1_l2");
      const auto t0 = Clock::now();
      for (const Phys& a : phys_) {
        const std::uint64_t line = a.addr / line_ * line_;
        const memsim::CacheAccess r1 =
            l1b_.access(line, a.kind != memsim::AccessKind::kRead);
        if (r1.hit) continue;
        if (r1.evicted && r1.evicted_dirty)
          l2b_.access(r1.evicted_line_addr, true);
        l2b_.access(line, false);
      }
      l12_s += seconds_since(t0);
    }
    {
      Span s(spans_, "memsim.replay_system");
      const auto t0 = Clock::now();
      for (const Phys& a : phys_) mem_.access(a.addr, a.kind);
      system_s += seconds_since(t0);
    }
    {
      Span s(spans_, "tap.replay_issue");
      const auto t0 = Clock::now();
      for (const Ref& r : refs_) tap_.issue(r.p, r.bytes, r.kind);
      tap_s += seconds_since(t0);
    }
    refs += refs_.size();
    refs_.clear();
    phys_.clear();
  }

  double stream_s = 0, l1_s = 0, l12_s = 0, system_s = 0, tap_s = 0;
  std::uint64_t refs = 0;
  /// References outside the previous reference's region that resolved to
  /// a registered region, and references in no region at all: each one
  /// costs TapContext an Os::region_of scan.
  std::uint64_t region_switches = 0, anon_refs = 0;

 private:
  struct Ref {
    const void* p;
    std::uint32_t bytes;
    memsim::AccessKind kind;
  };
  struct Phys {
    std::uint64_t addr;
    memsim::AccessKind kind;
  };

  /// Host -> simulated physical translation, mirroring TapContext::issue:
  /// last-region fast path, Os::region_of, then anonymous frames assigned
  /// in first-touch order (the same order the TapContext replay sees).
  void translate() {
    for (const Ref& r : refs_) {
      const auto addr = reinterpret_cast<std::uintptr_t>(r.p);
      std::uint64_t phys;
      if (have_last_ && addr >= last_begin_ && addr < last_end_) {
        phys = last_phys_ + (addr - last_begin_);
      } else if (const os::Region* reg = os_.region_of(r.p); reg != nullptr) {
        ++region_switches;
        have_last_ = true;
        last_begin_ = reinterpret_cast<std::uintptr_t>(reg->host_base);
        last_end_ = last_begin_ + reg->size;
        last_phys_ = reg->phys_base;
        phys = last_phys_ + (addr - last_begin_);
      } else {
        ++anon_refs;
        auto [it, inserted] = anon_.try_emplace(addr / page_, 0);
        if (inserted) it->second = anon_base_ + (anon_next_++) * page_;
        phys = it->second + addr % page_;
      }
      phys_.push_back({phys, r.kind});
      if (phys % line_ + r.bytes > line_)
        phys_.push_back({phys + r.bytes - 1, r.kind});
    }
  }

  Spans& spans_;
  volatile std::uint64_t sink_ = 0;
  const os::Os& os_;
  sim::TapContext& tap_;
  memsim::MemorySystem& mem_;
  std::uint64_t line_;
  memsim::Cache l1_, l1b_, l2b_;
  std::uint64_t anon_base_, page_, anon_next_ = 0;
  std::unordered_map<std::uintptr_t, std::uint64_t> anon_;
  bool have_last_ = false;
  std::uintptr_t last_begin_ = 0, last_end_ = 0;
  std::uint64_t last_phys_ = 0;
  std::vector<Ref> refs_;
  std::vector<Phys> phys_;
};

class RecordingTap {
 public:
  explicit RecordingTap(Replayer& r) : r_(&r) {}
  void read(const void* p, std::size_t n = sizeof(double)) {
    r_->push(p, n, memsim::AccessKind::kRead);
  }
  void write(const void* p, std::size_t n = sizeof(double)) {
    r_->push(p, n, memsim::AccessKind::kWrite);
  }
  void update(const void* p, std::size_t n = sizeof(double)) {
    r_->push(p, n, memsim::AccessKind::kUpdate);
  }

 private:
  Replayer* r_;
};

/// Records instead of simulating; bulk touches are split exactly as
/// sim::SimBackend::touch splits them.
class RecordingBackend {
 public:
  using Tap = RecordingTap;
  explicit RecordingBackend(Replayer& r) : r_(&r) {}
  [[nodiscard]] Tap tap() const { return RecordingTap(*r_); }
  [[nodiscard]] TickClock clock() const { return {}; }
  [[nodiscard]] BackendMode mode() const { return BackendMode::kSimulated; }
  void touch(const void* p, std::size_t n, MemOp op) {
    const auto kind = op == MemOp::kRead    ? memsim::AccessKind::kRead
                      : op == MemOp::kWrite ? memsim::AccessKind::kWrite
                                            : memsim::AccessKind::kUpdate;
    const auto* c = static_cast<const char*>(p);
    std::size_t off = 0;
    for (; off + sizeof(double) <= n; off += sizeof(double))
      r_->push(c + off, sizeof(double), kind);
    if (off < n) r_->push(c + off, n - off, kind);
  }

 private:
  Replayer* r_;
};

static_assert(MemBackend<RecordingBackend>);

}  // namespace

void run_sim(Run& run) {
  const sim::Kernel kernel = run.workload == "sim-dgemm" ? sim::Kernel::kDgemm
                                                         : sim::Kernel::kCg;
  const sim::PlatformOptions opt = platform(run);
  Spans& spans = *run.spans;

  // Set-up: everything run_kernel does before the kernel starts, repeated
  // so its median is stable.
  while (run.more_setup()) {
    Span sp(spans, "setup.sim_session");
    const auto t0 = Clock::now();
    const HostInputs in = generate(kernel, opt);
    Prepared p = prepare(opt, kernel, in);
    run.setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> refs_per_s;
  std::optional<sim::RunMetrics> first;
  const auto start = Clock::now();
  for (std::size_t rep = 0; run.more(start, rep, 3); ++rep) {
    sim::RunMetrics m;
    double secs;
    {
      Span sp(spans, "sim.run_kernel");
      const auto t0 = Clock::now();
      m = sim::run_kernel(kernel, opt);
      secs = seconds_since(t0);
    }
    if (!first) first = m;
    const std::uint64_t refs = m.refs_abft + m.refs_other;
    run.add_op("sim.run_kernel", secs * 1e3);
    refs_per_s.push_back(static_cast<double>(refs) / secs);
    run.check(m.status == abft::FtStatus::kOk &&
                  refs == first->refs_abft + first->refs_other &&
                  m.sys.mem_refs == first->sys.mem_refs,
              "run_kernel status/refs");
  }
  const std::uint64_t run_refs = first->refs_abft + first->refs_other;
  run.add_detail("sim_refs_per_s", median(refs_per_s), "refs/s");
  run.add_detail("tap_refs", static_cast<double>(run_refs), "count");
  run.add_detail("dram_share",
                 static_cast<double>(first->sys.demand_misses) /
                     static_cast<double>(first->sys.mem_refs),
                 "fraction");

  if (!run.traced) return;

  // --- split of run_kernel, step by step ---------------------------------
  // Medians over at least 3 reps and 3 s, so a few-second slow stretch on
  // the shared host does not land in the split alone.
  std::vector<double> inputgen, session, kernel_time;
  const auto split_start = Clock::now();
  for (std::size_t rep = 0;
       run.smoke ? rep < 1
                 : rep < 3 || (seconds_since(split_start) < 3.0 && rep < 15);
       ++rep) {
    Span sp(spans, "sim.split");
    auto t0 = Clock::now();
    HostInputs in;
    {
      Span s(spans, "sim.inputgen");
      in = generate(kernel, opt);
    }
    inputgen.push_back(seconds_since(t0));
    t0 = Clock::now();
    std::optional<Prepared> p;
    {
      Span s(spans, "sim.session");
      p.emplace(prepare(opt, kernel, in));
    }
    session.push_back(seconds_since(t0));
    t0 = Clock::now();
    abft::FtStatus st;
    {
      Span s(spans, "sim.kernel");
      sim::SimBackend be(p->session.tap_context(), p->session.memory());
      st = run_ft(*p, be);
    }
    kernel_time.push_back(seconds_since(t0));
    const sim::TapContext& tap = p->session.tap_context();
    run.check(st == abft::FtStatus::kOk &&
                  tap.refs_abft() + tap.refs_other() == run_refs,
              "split kernel status/refs");
  }
  const double kernel_s = median(kernel_time);
  run.add_layer("sim.inputgen_s", median(inputgen), "s");
  run.add_layer("sim.session_s", median(session), "s");
  run.add_layer("sim.kernel_s", kernel_s, "s");
  run.add_layer("sim.run_kernel_s",
                median(run.op_samples("sim.run_kernel")) * 1e-3, "s");

  // --- record once, replay through four paths ---------------------------
  {
    Span sp(spans, "sim.replay");
    const HostInputs in = generate(kernel, opt);
    Prepared rec = prepare(opt, kernel, in);
    Prepared mirror = prepare(opt, kernel, in);
    run.check(rec.session.os().all_phys_ranges() ==
                  mirror.session.os().all_phys_ranges(),
              "mirror Session has the recording Session's physical layout");
    Replayer rp(rec.session, mirror.session, spans);
    RecordingBackend be(rp);
    abft::FtStatus st;
    {
      Span s(spans, "abft.record");
      st = run_ft(rec, be);
    }
    rp.flush();
    const sim::TapContext& tap = rec.session.tap_context();
    run.check(st == abft::FtStatus::kOk && rp.refs == run_refs &&
                  tap.refs_abft() + tap.refs_other() == run_refs,
              "replayed reference count equals the run's");

    const double per_ref = 1e9 / static_cast<double>(rp.refs);  // s -> ns/ref
    run.add_layer("abft.sim_ns_per_ref",
                  (kernel_s - (rp.tap_s - rp.stream_s)) * per_ref, "ns");
    run.add_layer("tap.ns_per_ref", (rp.tap_s - rp.system_s) * per_ref, "ns");
    run.add_layer("tap.region_switches",
                  static_cast<double>(rp.region_switches), "count");
    run.add_layer("tap.anon_refs", static_cast<double>(rp.anon_refs), "count");
    run.add_layer("memsim.l1_ns_per_ref", (rp.l1_s - rp.stream_s) * per_ref,
                  "ns");
    run.add_layer("memsim.l2_ns_per_ref", (rp.l12_s - rp.l1_s) * per_ref,
                  "ns");
    run.add_layer("memsim.dram_ns_per_ref", (rp.system_s - rp.l12_s) * per_ref,
                  "ns");
    // Demand misses of the MemorySystem replay minus the run's: anonymous
    // workspace pages map by host address, so a few lines may differ.
    run.add_detail(
        "replay_demand_miss_delta",
        static_cast<double>(mirror.session.memory().stats().demand_misses) -
            static_cast<double>(first->sys.demand_misses),
        "count");
  }

  const sim::RunMetrics& m = *first;
  run.add_layer("memsim.refs", static_cast<double>(m.sys.mem_refs), "count");
  run.add_layer("memsim.l1_miss_rate", m.l1.miss_rate(), "fraction");
  run.add_layer("memsim.l2_miss_rate", m.l2.miss_rate(), "fraction");
  run.add_layer("memsim.dram_reads", static_cast<double>(m.dram.reads),
                "count");
  run.add_layer("memsim.writebacks", static_cast<double>(m.sys.writebacks),
                "count");
  run.add_layer("memsim.row_hit_rate", m.dram.row_hit_rate(), "fraction");
  run.add_layer("memsim.cpu_cycles", static_cast<double>(m.sys.cpu_cycles),
                "count");
  run.add_layer("memsim.stall_cycles",
                static_cast<double>(m.sys.stall_cycles), "count");
}

}  // namespace abftbench
