// campaign-storm: fault-injection campaigns under 4-way thread contention
// (campaign layer, and through it the fault injector, ECC decode, the
// memory controller's error registers, the OS interrupt handler, ABFT
// correction and the recovery ladder).
//
// One operation is one round: run_campaign for each of the four kernels at
// the tools/campaign dimensions, two double-bit faults per trial stormed
// over all live allocations, ladder on. A double-bit flip is SECDED's
// detected-but-uncorrectable pattern, so the faults that land in ABFT data
// surface as OS interrupts that ABFT or the ladder must repair; single-bit
// faults would all be corrected by ECC and never reach those layers. Every
// trial also rebuilds a Session and regenerates its inputs, which no sim-*
// workload exercises.
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaignd/protocol.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "linalg/generate.hpp"
#include "perf.hpp"
#include "sim/platform.hpp"

namespace abftbench {
namespace {

using namespace abftecc;

constexpr sim::Kernel kKernels[] = {sim::Kernel::kDgemm,
                                    sim::Kernel::kCholesky, sim::Kernel::kCg,
                                    sim::Kernel::kHpl};
constexpr unsigned kThreads = 4;
constexpr std::size_t kTrialsPerKernel = 100;

/// Round r of seed s: distinct trial seeds (campaign_seed ^ index, with
/// index < 256) for every (seed, round) pair.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t round) {
  return (seed << 20) | (static_cast<std::uint64_t>(round) << 8);
}

/// Operation part: one kernel's run_campaign call.
std::string part_name(sim::Kernel k) {
  return "campaign." + std::string(campaignd::kernel_slug(k));
}

/// The input generator Session::run calls for `k` (src/sim/platform.cpp).
void generate_inputs(const sim::PlatformOptions& p, sim::Kernel k) {
  Rng rng(p.seed);
  switch (k) {
    case sim::Kernel::kDgemm: {
      const Matrix a = Matrix::random(p.dgemm_dim, p.dgemm_dim, rng);
      const Matrix b = Matrix::random(p.dgemm_dim, p.dgemm_dim, rng);
      break;
    }
    case sim::Kernel::kCholesky: {
      const Matrix a = Matrix::random_spd(p.cholesky_dim, rng);
      break;
    }
    case sim::Kernel::kCg: {
      const linalg::LinearSystem s = linalg::make_spd_system(p.cg_dim, rng);
      break;
    }
    case sim::Kernel::kHpl: {
      const linalg::LinearSystem s =
          linalg::make_general_system(p.hpl_dim, rng);
      break;
    }
  }
}

template <typename Fn>
double median_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> v;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    v.push_back(seconds_since(t0) * 1e3);
  }
  return median(v);
}

}  // namespace

void run_campaign_storm(Run& run) {
  Spans& spans = *run.spans;
  std::vector<campaign::CampaignOptions> opts;
  for (sim::Kernel k : kKernels) {
    campaign::CampaignOptions o = campaignd::default_campaign_options();
    o.kernel = k;
    o.platform.seed = run.seed;
    o.platform.ladder = true;
    o.fault.kind = campaign::FaultKind::kDoubleBit;
    o.fault.count = 2;
    o.fault.storm_all_ranges = true;
    o.threads = kThreads;
    o.trials = run.smoke ? 4 : kTrialsPerKernel;
    opts.push_back(o);
  }

  // Set-up: the four golden runs, before any trial pool exists (as
  // campaign::run_golden asks).
  std::vector<campaign::GoldenRun> goldens;
  while (run.more_setup()) {
    Span sp(spans, "campaign.golden");
    const auto t0 = Clock::now();
    goldens.clear();
    for (const campaign::CampaignOptions& o : opts)
      goldens.push_back(campaign::run_golden(o));
    run.setup_s.push_back(seconds_since(t0));
  }

  std::array<std::uint64_t, campaign::kAllOutcomes.size()> outcomes{};
  std::uint64_t unclassified = 0;
  // Round 0's work on the fault path, layer by layer.
  std::uint64_t ecc_uncorrectable = 0, abft_corrected = 0, ladder = 0;
  const auto start = Clock::now();
  for (std::size_t round = 0; run.more(start, round, 2); ++round) {
    for (std::size_t k = 0; k < opts.size(); ++k) {
      campaign::CampaignOptions o = opts[k];
      o.campaign_seed = campaign_seed(run.seed, round);
      campaign::CampaignResult res;
      double secs;
      {
        Span sp(spans, "campaign.run_campaign");
        const auto t0 = Clock::now();
        res = campaign::run_campaign(o, goldens[k]);
        secs = seconds_since(t0);
      }
      run.add_op(part_name(o.kernel), secs * 1e3);
      for (const campaign::TrialOutcome& t : res.trials)
        run.check(t.materialized && !t.panicked,
                  "trial unclassified or panicked");
      run.check(res.trials.size() == o.trials && res.unclassified == 0 &&
                    res.panicked_trials == 0,
                "campaign totals");
      if (round == 0) {
        // Round 0 always runs, so its taxonomy is a deterministic count.
        for (std::size_t i = 0; i < outcomes.size(); ++i)
          outcomes[i] += res.rate(campaign::kAllOutcomes[i]).count;
        unclassified += res.unclassified;
        for (const campaign::TrialOutcome& t : res.trials) {
          ecc_uncorrectable += t.ecc_uncorrectable;
          abft_corrected += t.abft_corrected;
          ladder += t.recomputes + t.rollbacks;
        }
      }
    }
  }
  // Trials over the summed wall time of the run_campaign calls.
  double trials = 0.0, total_s = 0.0;
  for (const campaign::CampaignOptions& o : opts) {
    const std::vector<double>& ms = run.op_samples(part_name(o.kernel));
    const double n = static_cast<double>(ms.size() * o.trials);
    const double secs = std::accumulate(ms.begin(), ms.end(), 0.0) * 1e-3;
    run.add_detail(
        "trials_per_s." + std::string(campaignd::kernel_slug(o.kernel)),
        n / secs, "trials/s");
    trials += n;
    total_s += secs;
  }
  const double trials_per_s = trials / total_s;
  run.add_detail("trials_per_s", trials_per_s, "trials/s");

  if (!run.traced) return;

  // Single-thread trials on the first indices of round 0, per kernel.
  const std::uint32_t n_trials = run.smoke ? 2 : 64;
  std::vector<double> trial_ms;
  for (std::size_t k = 0; k < opts.size(); ++k) {
    campaign::CampaignOptions o = opts[k];
    o.campaign_seed = campaign_seed(run.seed, 0);
    for (std::uint32_t i = 0; i < n_trials; ++i) {
      Span sp(spans, "campaign.trial");
      const auto t0 = Clock::now();
      const campaign::TrialOutcome t = campaign::run_trial(o, goldens[k], i);
      trial_ms.push_back(seconds_since(t0) * 1e3);
      run.check(t.materialized && !t.panicked, "single-thread trial");
    }
  }
  // Per-trial set-up pieces, averaged over the four kernels (each kernel
  // gets the same number of trials).
  const std::size_t reps = run.smoke ? 1 : 16;
  double build_ms = 0.0, inputgen_ms = 0.0;
  for (const campaign::CampaignOptions& o : opts) {
    Span sp(spans, "campaign.trial_setup");
    build_ms += median_ms(reps, [&] {
      const sim::Session s =
          sim::Session::Builder(o.platform).private_observability().build();
    });
    inputgen_ms +=
        median_ms(reps, [&] { generate_inputs(o.platform, o.kernel); });
  }
  const double n_kernels = static_cast<double>(opts.size());
  const double mean_trial_s =
      std::accumulate(trial_ms.begin(), trial_ms.end(), 0.0) /
      static_cast<double>(trial_ms.size()) * 1e-3;

  run.add_layer("campaign.golden_s", median(run.setup_s), "s");
  run.add_layer("campaign.trial_ms_p50", percentile(trial_ms, 50), "ms");
  run.add_layer("campaign.trial_ms_p90", percentile(trial_ms, 90), "ms");
  run.add_layer("campaign.session_build_ms", build_ms / n_kernels, "ms");
  run.add_layer("campaign.trial_inputgen_ms", inputgen_ms / n_kernels, "ms");
  run.add_layer("campaign.thread_efficiency",
                trials_per_s / (kThreads / mean_trial_s), "ratio");
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    run.add_layer(
        "campaign.outcome." +
            std::string(campaign::to_string(campaign::kAllOutcomes[i])),
        static_cast<double>(outcomes[i]), "count");
  run.add_layer("campaign.unclassified", static_cast<double>(unclassified),
                "count");
  run.add_layer("ecc.uncorrectable", static_cast<double>(ecc_uncorrectable),
                "count");
  run.add_layer("abft.corrected", static_cast<double>(abft_corrected),
                "count");
  run.add_layer("recovery.ladder_repairs", static_cast<double>(ladder),
                "count");
}

}  // namespace abftbench
