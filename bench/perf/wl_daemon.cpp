// daemon-small-jobs: campaign-as-a-service latency (campaignd layer: the
// socket protocol, job spool, forked shard workers and chunk scheduling).
//
// Load: one Client connection in a closed loop of sequential submit+wait
// calls, each a 16-trial FT-CG job (single-bit faults, campaign seed =
// workload seed + job index) against `campaignd --shards 2`. Jobs are
// small on purpose, so protocol handling, fork, chunk scheduling and the
// fsync'd spool writes are a visible share of each job's latency.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/accumulator.hpp"
#include "campaign/campaign.hpp"
#include "campaignd/client.hpp"
#include "campaignd/protocol.hpp"
#include "perf.hpp"

extern char** environ;

namespace abftbench {
namespace {

using namespace abftecc;
namespace fs = std::filesystem;

constexpr std::size_t kTrialsPerJob = 16;
constexpr unsigned kShards = 2;

campaignd::JobSpec job_spec(std::uint64_t seed, std::size_t i) {
  campaignd::JobSpec spec;
  spec.name = "perf";
  spec.options = campaignd::default_campaign_options();
  spec.options.kernel = sim::Kernel::kCg;
  spec.options.fault.kind = campaign::FaultKind::kSingleBit;
  spec.options.trials = kTrialsPerJob;
  spec.options.campaign_seed = seed + i;
  spec.shards = kShards;
  return spec;
}

/// The same job in this process: golden run plus a 2-thread campaign.
std::string run_in_process(const campaignd::JobSpec& spec) {
  campaign::CampaignOptions o = spec.options;
  o.threads = kShards;
  const campaign::GoldenRun golden = campaign::run_golden(o);
  const campaign::CampaignResult res = campaign::run_campaign(o, golden);
  return campaign::Accumulator::of(o, res.trials).to_json();
}

/// An aggregate JSON minus its cycles_by_outcome member. Simulated cycle
/// counts shift with host heap layout (see campaign::TrialOutcome::cycles),
/// so that member is the one part of an aggregate outside the determinism
/// surface; every other byte must match.
std::string without_cycles(std::string s) {
  const std::string key = "\"cycles_by_outcome\":";
  const std::size_t b = s.find(key);
  if (b == std::string::npos) return s;
  std::size_t i = b + key.size();
  for (int depth = 0; i < s.size(); ++i) {
    if (s[i] == '{') ++depth;
    if (s[i] == '}' && --depth == 0) break;
  }
  s.erase(b, i + 1 - b);
  return s;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Remove a spool and sync its filesystem, so the journal commit and the
/// block discards that the removal triggers (ext4 mounted with `discard`)
/// finish in this process, after all timing, instead of landing on the
/// fsyncs of the next run's jobs.
void remove_synced(const fs::path& dir) {
  fs::remove_all(dir);
  const int fd = ::open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

/// A campaignd child process. The destructor shuts it down over the
/// socket (or, failing that, kills it) and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& socket,
         const std::string& state)
      : socket_(socket) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // The daemon's banner must not land in this process's JSON stdout.
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY,
                                     0);
    const std::string shards = std::to_string(kShards);
    std::vector<std::string> args = {bin,   "--socket", socket, "--state-dir",
                                     state, "--shards", shards};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + bin + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the daemon answers a ping on a fresh connection.
  void wait_ready(campaignd::Client& c) {
    const auto t0 = Clock::now();
    std::string err;
    for (;;) {
      if (c.connect(socket_, &err) && c.ping(&err)) return;
      if (exited() || seconds_since(t0) > 30.0)
        throw std::runtime_error("campaignd did not come up: " + err);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  void stop() {
    if (pid_ < 0) return;
    campaignd::Client c;
    std::string err;
    if (!exited() && c.connect(socket_, &err)) (void)c.shutdown_daemon(&err);
    c.close();
    const auto t0 = Clock::now();
    while (!exited()) {
      if (seconds_since(t0) > 30.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  /// Reaps the child if it has exited.
  bool exited() {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    return r == pid_ || (r < 0 && errno == ECHILD);
  }

  pid_t pid_ = -1;
  std::string socket_;
};

}  // namespace

void run_daemon(Run& run) {
  if (run.campaignd.empty() || run.work_dir.empty())
    throw std::runtime_error(
        "daemon-small-jobs needs --campaignd and --work-dir");
  Spans& spans = *run.spans;
  const fs::path work = run.work_dir;
  const std::string socket = (work / "cd.sock").string();
  const fs::path state = work / "state";
  fs::create_directories(work);
  // A spool left by a killed run would be recovered and resumed by the
  // daemon; every run starts from an empty one.
  fs::remove_all(state);

  // Set-up: spawn the daemon until its first ping answers; repeated, and
  // the last daemon serves the jobs. Every spawn opens the same (still
  // empty) spool.
  std::optional<Daemon> daemon;
  campaignd::Client client;
  while (run.more_setup()) {
    client.close();
    daemon.reset();
    fs::remove(socket);
    Span sp(spans, "campaignd.spawn");
    const auto t0 = Clock::now();
    daemon.emplace(run.campaignd, socket, state.string());
    daemon->wait_ready(client);
    run.setup_s.push_back(seconds_since(t0));
  }

  std::vector<std::string> ids;
  std::vector<double> ack_ms, wait_ms;
  const auto start = Clock::now();
  for (std::size_t i = 0; run.more(start, i, 20); ++i) {
    Span sp(spans, "campaignd.job");
    std::string err;
    const auto t0 = Clock::now();
    std::optional<std::string> id;
    {
      Span s(spans, "campaignd.submit");
      id = client.submit(job_spec(run.seed, i), &err);
    }
    const auto t_ack = Clock::now();
    std::optional<obs::JsonValue> res;
    if (id) {
      Span s(spans, "campaignd.wait");
      res = client.wait(*id, &err);
    }
    const auto t_done = Clock::now();
    run.add_op("campaignd.job", ms_between(t0, t_done));
    ack_ms.push_back(ms_between(t0, t_ack));
    wait_ms.push_back(ms_between(t_ack, t_done));
    const bool done = res && res->str("state") == "done" &&
                      res->u64("trials_done") == kTrialsPerJob;
    run.check(done, "job " + std::to_string(i) + " did not finish: " + err);
    ids.push_back(id.value_or(""));
  }

  // Job 0's spooled aggregate must match the same spec run in this
  // process byte for byte, cycle sums aside.
  {
    Span sp(spans, "campaignd.inproc_check");
    const std::string spooled =
        read_file(state / "jobs" / ids.front() / "aggregate.json");
    run.check(without_cycles(spooled) ==
                  without_cycles(run_in_process(job_spec(run.seed, 0)) + "\n"),
              "job 0 aggregate differs from the in-process run");
  }

  std::vector<double> ping_ms, inproc_ms;
  if (run.traced) {
    std::string err;
    for (std::size_t i = 0; i < (run.smoke ? 2u : 50u); ++i) {
      Span sp(spans, "campaignd.ping");
      const auto t0 = Clock::now();
      run.check(client.ping(&err), "ping");
      ping_ms.push_back(seconds_since(t0) * 1e3);
    }
    for (std::size_t i = 0; i < (run.smoke ? 2u : 16u); ++i) {
      Span sp(spans, "campaignd.inproc_job");
      const auto t0 = Clock::now();
      (void)run_in_process(job_spec(run.seed, i));
      inproc_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  const double spool_bytes =
      static_cast<double>(tree_bytes(state / "jobs")) /
      static_cast<double>(ids.size());
  client.close();
  daemon.reset();  // reaped here, so RUSAGE_CHILDREN covers it
  remove_synced(state);

  if (!run.traced) return;
  const double job_p50 = median(run.op_samples("campaignd.job"));
  const double inproc_p50 = median(inproc_ms);
  run.add_layer("campaignd.ping_ms_p50", median(ping_ms), "ms");
  run.add_layer("campaignd.submit_ack_ms_p50", median(ack_ms), "ms");
  run.add_layer("campaignd.wait_ms_p50", median(wait_ms), "ms");
  run.add_layer("campaignd.inproc_job_ms_p50", inproc_p50, "ms");
  run.add_layer("campaignd.overhead_ms", job_p50 - inproc_p50, "ms");
  run.add_layer("campaignd.spool_bytes_per_job", spool_bytes, "bytes");
}

}  // namespace abftbench
