// native-ft: the seven FT kernels under NativeBackend on one thread, each
// interleaved with its unprotected linalg baseline (abft + linalg layers).
// Nothing here touches memsim.
//
// One operation is one rep: each of the seven FT calls once; its time is
// their summed wall time. Every FT output is checked against the output of
// its unprotected baseline, computed once before timing. Traced runs also
// time each baseline right before its FT call, for the overhead ratios.
#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "abft/ft_cg.hpp"
#include "abft/ft_cholesky.hpp"
#include "abft/ft_dgemm.hpp"
#include "abft/ft_dgemm_dual.hpp"
#include "abft/ft_dgemm_fused.hpp"
#include "abft/ft_hpl.hpp"
#include "abft/ft_qr.hpp"
#include "common/backend.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "linalg/cg.hpp"
#include "linalg/factor.hpp"
#include "linalg/gemm_native.hpp"
#include "linalg/generate.hpp"
#include "linalg/qr.hpp"
#include "perf.hpp"

namespace abftbench {
namespace {

using namespace abftecc;

/// Every FT output must match its baseline's output to this relative
/// max-norm error: |ft - ref|_max / |ref|_max. Clean runs differ by
/// round-off only (~1e-15); a missed or wrong correction is O(1).
constexpr double kResidualBound = 1e-10;

struct Sizes {
  std::size_t gemm, cholesky, hpl, hpl_procs, qr, cg, cg_iterations;
};

Sizes sizes(bool smoke) {
  if (smoke) return {128, 128, 128, 4, 96, 256, 20};
  return {1024, 1536, 1536, 4, 1024, 2048, 150};
}

/// R R^T + n I, Matrix::random_spd's distribution, with the product on
/// the native GEMM: random_spd's scalar triple loop takes 19 s at n=1536.
Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix r = Matrix::random(n, n, rng);
  Matrix rt(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) rt(i, j) = r(j, i);
  Matrix a(n, n);
  linalg::gemm_native(1.0, r.view(), rt.view(), 0.0, a.view());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// The CG operator: the Kac-Murdock-Szego matrix 0.95^|i-j| plus a random
/// diagonal in [0, 0.1). It is SPD with a condition number near 10^3, so
/// CG runs all of its iterations without converging; on R R^T + n I it
/// converges after 44 and the rest of the phase would not run. O(n^2).
Matrix cg_operator(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      a(i, j) = std::pow(0.95, std::abs(static_cast<double>(i) -
                                         static_cast<double>(j)));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += rng.uniform(0.0, 0.1);
  return a;
}

struct Inputs {
  Matrix ga, gb;  ///< DGEMM family
  Matrix spd;     ///< Cholesky
  linalg::LinearSystem general;  ///< HPL
  Matrix qr;      ///< QR
  Matrix cg_a;    ///< CG operator (SPD)
  std::vector<double> cg_b;
};

Inputs make_inputs(const Sizes& s, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.ga = Matrix::random(s.gemm, s.gemm, rng);
  in.gb = Matrix::random(s.gemm, s.gemm, rng);
  in.spd = random_spd(s.cholesky, rng);
  in.general = linalg::make_general_system(s.hpl, rng);
  in.qr = Matrix::random(s.qr, s.qr, rng);
  in.cg_a = cg_operator(s.cg, rng);
  in.cg_b.resize(s.cg);
  for (double& v : in.cg_b) v = rng.uniform(-1.0, 1.0);
  return in;
}

double rel_err(std::span<const double> got, std::span<const double> ref) {
  if (got.size() != ref.size()) return INFINITY;
  double d = 0.0, r = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double e = std::abs(got[i] - ref[i]);
    if (!(e <= d)) d = e;  // NaN propagates as a failure
    r = std::max(r, std::abs(ref[i]));
  }
  return r > 0.0 ? d / r : d;
}

/// The lower (i >= j) or upper (i <= j) triangle of a view, flattened
/// column by column, for comparing triangular factors.
std::vector<double> triangle(ConstMatrixView v, bool lower) {
  std::vector<double> out;
  for (std::size_t j = 0; j < v.cols(); ++j)
    for (std::size_t i = 0; i < v.rows(); ++i)
      if (lower ? i >= j : i <= j) out.push_back(v(i, j));
  return out;
}

std::vector<double> flat(ConstMatrixView v) {
  std::vector<double> out;
  out.reserve(v.rows() * v.cols());
  for (std::size_t j = 0; j < v.cols(); ++j)
    for (std::size_t i = 0; i < v.rows(); ++i) out.push_back(v(i, j));
  return out;
}

template <typename Fn>
double timed(Spans& spans, const char* name, Fn&& fn) {
  Span sp(spans, name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// The unprotected baselines. Each call runs one linalg routine on a
/// fresh copy of its input (copied outside the call) and leaves the output
/// in this object; output() flattens it for comparison.
struct Baselines {
  const Inputs& in;
  linalg::CgOptions cg_opt;
  Matrix c, c_native, chol, lu, qr;
  std::vector<std::size_t> piv;
  std::vector<double> tau, x_pcg, x_lu;

  Baselines(const Inputs& inputs, const Sizes& s, linalg::CgOptions cg)
      : in(inputs),
        cg_opt(cg),
        c(s.gemm, s.gemm),
        c_native(s.gemm, s.gemm),
        chol(s.cholesky, s.cholesky),
        lu(s.hpl, s.hpl),
        qr(s.qr, s.qr),
        tau(s.qr),
        x_pcg(s.cg) {}

  void gemm() {
    linalg::gemm(1.0, in.ga.view(), in.gb.view(), 0.0, c.view());
  }
  void gemm_native() {
    linalg::gemm_native(1.0, in.ga.view(), in.gb.view(), 0.0,
                        c_native.view());
  }
  bool potrf() {
    return linalg::potrf(chol.view()) == linalg::FactorStatus::kOk;
  }
  bool getrf() {
    return linalg::getrf(lu.view(), piv) == linalg::FactorStatus::kOk;
  }
  void geqrf() { linalg::geqrf(qr.view(), tau); }
  void pcg() {
    (void)linalg::pcg_solve(in.cg_a.view(), in.cg_b, x_pcg, cg_opt);
  }

  void reset() {
    copy_into(chol.view(), in.spd.view());
    copy_into(lu.view(), in.general.a.view());
    copy_into(qr.view(), in.qr.view());
    std::fill(x_pcg.begin(), x_pcg.end(), 0.0);
  }
};

/// Reference outputs every FT result is checked against.
struct References {
  std::vector<double> c, chol, x_lu, r, x_pcg;
};

/// Per-kernel samples across reps.
struct Series {
  const char* key;  ///< metric stem, e.g. "ftdgemm"
  std::vector<double> s, encode, verify, correct;
  void add(Run& run, double secs, const abft::FtStats& st) {
    run.add_op(std::string("abft.") + key, secs * 1e3);
    s.push_back(secs);
    encode.push_back(st.encode_seconds);
    verify.push_back(st.verify_seconds);
    correct.push_back(st.correct_seconds);
  }
};

bool ok_status(abft::FtStatus st) { return st == abft::FtStatus::kOk; }

}  // namespace

void run_native(Run& run) {
  const Sizes sz = sizes(run.smoke);
  Spans& spans = *run.spans;

  // Set-up: input generation from the seed, repeated so its median is
  // stable; the last generated set is the one timed.
  Inputs in;
  while (run.more_setup()) {
    Span sp(spans, "setup.native_inputs");
    const auto t0 = Clock::now();
    in = make_inputs(sz, run.seed);
    run.setup_s.push_back(seconds_since(t0));
  }

  linalg::CgOptions cg_opt;
  cg_opt.max_iterations = sz.cg_iterations;
  cg_opt.tolerance = 1e-30;  // representative phase: exactly N iterations

  // Reference outputs, once and untimed.
  Baselines base(in, sz, cg_opt);
  References ref;
  {
    Span sp(spans, "native.references");
    base.reset();
    base.gemm();
    base.gemm_native();
    run.check(base.potrf() && base.getrf(), "potrf/getrf status");
    base.geqrf();
    base.pcg();
    ref.c = flat(base.c.view());
    run.check(rel_err(flat(base.c_native.view()), ref.c) <= kResidualBound,
              "gemm_native differs from linalg::gemm");
    ref.chol = triangle(base.chol.view(), true);
    ref.x_lu = in.general.b;
    linalg::lu_solve(base.lu.view(), base.piv, ref.x_lu);
    ref.r = triangle(base.qr.view(), false);
    ref.x_pcg = base.x_pcg;
  }

  const std::size_t n = sz.gemm;
  Matrix c_fused(n, n);
  Matrix ac(n + 1, n), br(n, n + 1), cf(n + 1, n + 1);
  Matrix ac2(n + 2, n), br2(n, n + 2), cf2(n + 2, n + 2);
  const std::size_t nc = sz.cholesky;
  Matrix chol(nc, nc), chol_chk(nc, 2);
  const std::size_t nh = sz.hpl, h = nh / sz.hpl_procs;
  Matrix ae(nh + h, nh + 1), uc(h, nh + 1);
  std::vector<double> x_hpl(nh);
  const std::size_t nq = sz.qr;
  Matrix aw(nq, nq + 2);
  std::vector<double> tau(nq);
  Matrix cg_vecs(sz.cg, 5);

  Series ftdgemm{"ftdgemm", {}, {}, {}, {}};
  Series fused{"ftdgemm_fused", {}, {}, {}, {}};
  Series dual{"ftdgemm_dual", {}, {}, {}, {}};
  Series cholesky{"ftcholesky", {}, {}, {}, {}};
  Series ftcg{"ftcg", {}, {}, {}, {}};
  Series hpl{"fthpl", {}, {}, {}, {}};
  Series qr{"ftqr", {}, {}, {}, {}};
  std::vector<double> t_gemm, t_native, t_potrf, t_getrf, t_geqrf, t_pcg;

  // One rep: every FT call once. Traced runs interleave each FT call with
  // its unprotected baseline, so a throughput dip on the shared host lands
  // on both sides of the overhead ratio.
  const auto start = Clock::now();
  for (std::size_t rep = 0; run.more(start, rep, 3); ++rep) {
    Span op(spans, "native.rep");
    NativeBackend be;
    if (run.traced) base.reset();

    // --- DGEMM family against both unprotected GEMMs --------------------
    if (run.traced) {
      t_gemm.push_back(timed(spans, "linalg.gemm", [&] { base.gemm(); }));
      t_native.push_back(
          timed(spans, "linalg.gemm_native", [&] { base.gemm_native(); }));
    }
    {
      abft::FtDgemm ft(in.ga.view(), in.gb.view(),
                       {ac.view(), br.view(), cf.view()});
      abft::FtStatus st{};
      const double s =
          timed(spans, "abft.ftdgemm", [&] { st = ft.run(be); });
      ftdgemm.add(run, s, ft.stats());
      run.check(ok_status(st) &&
                    rel_err(flat(ft.result()), ref.c) <= kResidualBound,
                "FtDgemm output/status");
    }
    {
      abft::FtDgemmFused ft(in.ga.view(), in.gb.view(), c_fused.view());
      abft::FtStatus st{};
      const double s =
          timed(spans, "abft.ftdgemm_fused", [&] { st = ft.run(be); });
      fused.add(run, s, ft.stats());
      run.check(ok_status(st) &&
                    rel_err(flat(ft.result()), ref.c) <= kResidualBound,
                "FtDgemmFused output/status");
    }
    {
      abft::FtDgemmDual ft(in.ga.view(), in.gb.view(),
                           {ac2.view(), br2.view(), cf2.view()});
      abft::FtStatus st{};
      const double s =
          timed(spans, "abft.ftdgemm_dual", [&] { st = ft.run(be); });
      dual.add(run, s, ft.stats());
      run.check(ok_status(st) &&
                    rel_err(flat(ft.result()), ref.c) <= kResidualBound,
                "FtDgemmDual output/status");
    }

    // --- Cholesky against potrf -----------------------------------------
    if (run.traced)
      t_potrf.push_back(timed(spans, "linalg.potrf", [&] { base.potrf(); }));
    copy_into(chol.view(), in.spd.view());
    {
      abft::FtCholesky ft({chol.view(), chol_chk.view().col(0),
                           chol_chk.view().col(1)});
      abft::FtStatus st{};
      const double s =
          timed(spans, "abft.ftcholesky", [&] { st = ft.run(be); });
      cholesky.add(run, s, ft.stats());
      run.check(ok_status(st) && rel_err(triangle(chol.view(), true),
                                         ref.chol) <= kResidualBound,
                "FtCholesky output/status");
    }

    // --- CG against pcg_solve with the same iteration count -------------
    if (run.traced)
      t_pcg.push_back(timed(spans, "linalg.pcg", [&] { base.pcg(); }));
    cg_vecs.view().fill(0.0);
    {
      auto v = cg_vecs.view();
      abft::FtCg ft(in.cg_a.view(), in.cg_b,
                    {v.col(0), v.col(1), v.col(2), v.col(3), v.col(4)},
                    cg_opt);
      abft::FtCgResult res;
      const double s = timed(spans, "abft.ftcg", [&] { res = ft.run(be); });
      ftcg.add(run, s, ft.stats());
      // A non-converged representative phase is the expected outcome
      // (tolerance 1e-30), exactly as sim::Session treats it.
      const bool status_ok = res.status == abft::FtStatus::kOk ||
                             res.status == abft::FtStatus::kNumericalFailure;
      run.check(status_ok && res.cg.iterations == sz.cg_iterations &&
                    rel_err(v.col(0), ref.x_pcg) <= kResidualBound,
                "FtCg output/status");
    }

    // --- HPL against getrf (+ lu_solve for the reference solution) ------
    if (run.traced)
      t_getrf.push_back(timed(spans, "linalg.getrf", [&] { base.getrf(); }));
    {
      abft::FtHpl ft(in.general.a.view(), in.general.b, sz.hpl_procs,
                     {ae.view(), uc.view()});
      abft::FtStatus st{};
      const double s = timed(spans, "abft.fthpl", [&] { st = ft.factor(be); });
      hpl.add(run, s, ft.stats());
      ft.solve(x_hpl);
      run.check(ok_status(st) && rel_err(x_hpl, ref.x_lu) <= kResidualBound,
                "FtHpl output/status");
    }

    // --- QR against geqrf ------------------------------------------------
    if (run.traced)
      t_geqrf.push_back(timed(spans, "linalg.geqrf", [&] { base.geqrf(); }));
    {
      abft::FtQr ft(in.qr.view(), {aw.view(), tau});
      abft::FtStatus st{};
      const double s = timed(spans, "abft.ftqr", [&] { st = ft.factor(be); });
      qr.add(run, s, ft.stats());
      run.check(ok_status(st) &&
                    rel_err(triangle(aw.view().block(0, 0, nq, nq), false),
                            ref.r) <= kResidualBound,
                "FtQr output/status");
    }
  }

  // Best-of-reps FT total, the figure the native ledger has always quoted.
  const Series* all[] = {&ftdgemm, &fused, &dual, &cholesky,
                         &ftcg,    &hpl,   &qr};
  double best_total = 0.0;
  for (const Series* k : all)
    best_total += *std::min_element(k->s.begin(), k->s.end());
  run.add_detail("native_ft_s", best_total, "s");

  if (!run.traced) return;
  // The DGEMM family's baseline in each rep: the faster unprotected GEMM.
  std::vector<double> t_dgemm_base(t_gemm.size());
  for (std::size_t i = 0; i < t_gemm.size(); ++i)
    t_dgemm_base[i] = std::min(t_gemm[i], t_native[i]);
  auto emit = [&](const Series& k, const std::vector<double>& base) {
    const std::string stem = std::string("abft.") + k.key;
    run.add_layer(stem + ".s", median(k.s), "s");
    run.add_layer(stem + ".encode_s", median(k.encode), "s");
    run.add_layer(stem + ".verify_s", median(k.verify), "s");
    run.add_layer(stem + ".correct_s", median(k.correct), "s");
    // Median of each rep's FT/baseline ratio: the pair ran back to back,
    // so a slow stretch on the shared host mostly cancels.
    std::vector<double> ratio(k.s.size());
    for (std::size_t i = 0; i < ratio.size(); ++i) ratio[i] = k.s[i] / base[i];
    run.add_layer(stem + ".overhead", median(ratio) - 1.0, "ratio");
  };
  emit(ftdgemm, t_dgemm_base);
  emit(fused, t_dgemm_base);
  emit(dual, t_dgemm_base);
  emit(cholesky, t_potrf);
  emit(ftcg, t_pcg);
  emit(hpl, t_getrf);
  emit(qr, t_geqrf);
  run.add_layer("linalg.gemm.s", median(t_gemm), "s");
  run.add_layer("linalg.gemm_native.s", median(t_native), "s");
  run.add_layer("linalg.potrf.s", median(t_potrf), "s");
  run.add_layer("linalg.getrf.s", median(t_getrf), "s");
  run.add_layer("linalg.geqrf.s", median(t_geqrf), "s");
  run.add_layer("linalg.pcg.s", median(t_pcg), "s");
}

}  // namespace abftbench
