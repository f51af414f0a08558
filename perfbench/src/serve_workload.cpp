// serve_open_mix: an open-loop job stream into SimulationService. The main
// thread is the generator: it sleeps until each job's due time and submits
// it, whatever the service's backlog. Job latency runs from the due time to
// the job's terminal state, so a stalled generator or a growing queue shows
// up in the latency of every later job.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)  // defined by the standard headers above
#include <malloc.h>
#endif

#include "bench_util.hpp"
#include "rshc/io/checkpoint.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/serve/riemann_cache.hpp"
#include "rshc/serve/scenario.hpp"
#include "rshc/serve/service.hpp"

namespace perfbench {
namespace {

namespace serve = rshc::serve;
using rshc::solver::HostPipeline;

constexpr unsigned kWorkers = 3;
constexpr int kSetupReps = 15;
constexpr double kWarmupS = 2.0;
constexpr double kPollMs = 1.0;  // trace-run statuses() poll period

/// Arrival rate, jobs/s: about 25 % of the capacity of kWorkers workers on
/// this mix (3 saturated workers completed ~200 jobs/s on a 4-core x86-64
/// host with AVX-512). At ~63 % load, a slowdown of the shared host by a
/// quarter, which lasts minutes at a time, pushed the queue near saturation
/// and p95 latency up 5x. At 40 % the p95 still sat where queueing starts,
/// and ten-run sets spread up to 0.36 of their median; at 25 % the queue
/// wait stays a few ms and p95 is mostly the run time of the slowest kinds.
/// The rate is fixed, so a slower service shows as longer latency and a
/// backlog, not as a lighter load.
constexpr double kRatePerS = 50.0;

struct JobKind {
  const char* problem;
  serve::PhysicsKind physics;
  long long resolution;
  int steps;
  bool validate;
  HostPipeline pipeline;
  double l1_tol;  ///< validation jobs: max L1 density error accepted
};

// The deck every window draws from, in equal shares: SRHD and SRMHD, 1D and
// 2D, validation jobs sharing three exact-Riemann references (RiemannCache
// hits after the first of each), and device-pipeline jobs. The L1
// tolerances are fixed here (the scenario catalog has none): about twice
// the error each spec gives, which is deterministic for a fixed spec.
const JobKind kKinds[] = {
    {"sod", serve::PhysicsKind::kSrhd, 400, 30, true,
     HostPipeline::kBatchedSimd, 0.003},
    {"mm1", serve::PhysicsKind::kSrhd, 400, 30, true,
     HostPipeline::kBatchedSimd, 0.045},
    {"mm2", serve::PhysicsKind::kSrhd, 400, 30, true,
     HostPipeline::kBatchedSimd, 0.025},
    {"kh", serve::PhysicsKind::kSrhd, 48, 6, false,
     HostPipeline::kBatchedSimd, 0.0},
    {"blast2d", serve::PhysicsKind::kSrhd, 48, 6, false,
     HostPipeline::kBatchedSimd, 0.0},
    {"kh", serve::PhysicsKind::kSrhd, 48, 6, false, HostPipeline::kDevice,
     0.0},
    {"balsara1", serve::PhysicsKind::kSrmhd, 400, 20, false,
     HostPipeline::kBatchedSimd, 0.0},
    {"mhd_blast", serve::PhysicsKind::kSrmhd, 40, 5, false,
     HostPipeline::kBatchedSimd, 0.0},
    {"field_loop", serve::PhysicsKind::kSrmhd, 40, 5, false,
     HostPipeline::kBatchedSimd, 0.0},
};
constexpr std::size_t kNumKinds = std::size(kKinds);

serve::JobSpec make_spec(const JobKind& k, serve::Priority prio, int i) {
  serve::JobSpec spec;
  spec.name = std::string(k.problem) + "_" + std::to_string(i);
  spec.problem = k.problem;
  spec.physics = k.physics;
  spec.resolution = k.resolution;
  spec.steps = k.steps;
  spec.validate = k.validate;
  spec.pipeline = k.pipeline;
  spec.priority = prio;
  return spec;
}

struct Planned {
  std::size_t kind;
  serve::Priority priority;
  double due_s;  ///< offset from the window start
};

/// The seeded schedule: n jobs in fixed shares of every kind and 1 in 8 at
/// high priority (the rest normal, so only those preempt), shuffled, with
/// arrival times of a Poisson process conditioned on n arrivals in the
/// window (sorted uniform draws).
std::vector<Planned> plan(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::lround(kRatePerS * seconds));
  std::vector<Planned> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].kind = i % kNumKinds;
    jobs[i].priority =
        i % 8 == 7 ? serve::Priority::kHigh : serve::Priority::kNormal;
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  }
  std::vector<double> due(n);
  for (double& d : due) d = rng.uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  for (std::size_t i = 0; i < n; ++i) jobs[i].due_s = due[i];
  return jobs;
}

Clock::duration since_start(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Submitted {
  const Planned* plan;
  serve::JobId id = serve::kInvalidJob;
  bool admitted = false;
  double submit_s = 0.0;  ///< offset from the window start
};

double checkpoint_ms(const std::string& path, rshc::solver::SrhdSolver& s,
                     bool write) {
  std::vector<double> t;
  rshc::io::write_checkpoint(path, s);
  for (int rep = 0; rep < 15; ++rep) {
    const Span sp(write ? "io::write_checkpoint" : "io::read_checkpoint");
    const auto t0 = Clock::now();
    if (write) {
      rshc::io::write_checkpoint(path, s);
    } else {
      rshc::io::read_checkpoint(path, s);
    }
    t.push_back(1e3 * seconds_since(t0));
  }
  return median(t);
}

}  // namespace

void run_serve_open_mix(const Args& a, Result& r) {
#if defined(__GLIBC__)
  // A fixed mmap threshold: glibc otherwise raises it each time a large
  // block is freed, so later jobs' solver arrays land in the worker
  // threads' heaps in whatever order the jobs ran, and peak_rss_mb spread
  // 0.17 of its median over ten runs. At 64 KiB the jobs' arrays are
  // mapped and unmapped per job and peak RSS varied about 5 %; job latency
  // showed no cost next to the host's own drift.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
#endif
  serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 1u << 16;
  cfg.zone_budget = 1LL << 40;
  cfg.checkpoint_dir = a.workdir + "/serve_ckpt";

  std::unique_ptr<serve::SimulationService> svc;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    svc.reset();
    const Span sp("bench.setup");
    const auto t0 = Clock::now();
    svc = std::make_unique<serve::SimulationService>(cfg);
    setup.push_back(seconds_since(t0));
  }

  // Warm-up (untimed): the same open-loop stream for kWarmupS, so every
  // worker, both physics and the device pipeline have run before timing.
  const auto warm0 = Clock::now();
  for (const Planned& p : plan(a.seed ^ 0x5eedULL, kWarmupS)) {
    std::this_thread::sleep_until(warm0 + since_start(p.due_s));
    const auto adm = svc->submit(make_spec(kKinds[p.kind], p.priority, -1));
    r.check(adm.admitted, "warm-up job rejected: " + adm.reason);
  }
  svc->wait_idle();
  r.set("bench.warmup_s", seconds_since(warm0), "s");
  serve::RiemannCache::global().clear();
  const serve::ServiceStats stats0 = svc->stats();

  const std::vector<Planned> schedule = plan(a.seed, a.seconds);
  std::vector<Submitted> subs(schedule.size());
  std::vector<double> lag_ms, submit_us;
  std::map<serve::JobId, std::size_t> by_id;

  const auto start = Clock::now();
  // Trace runs: a poller follows every job from queued to running.
  std::atomic<bool> stop_poll{false};
  std::vector<double> poll_gaps_ms;
  std::map<serve::JobId, double> first_running;  // owned by the poller
  std::thread poller;
  // Stops and joins the poller, also on every path out of this scope.
  struct PollerStop {
    std::atomic<bool>& stop;
    std::thread& thread;
    void join() {
      stop.store(true, std::memory_order_relaxed);
      if (thread.joinable()) thread.join();
    }
    ~PollerStop() { join(); }
  } poller_stop{stop_poll, poller};
  if (a.trace) {
    poller = std::thread([&] {
      auto last = Clock::now();
      while (!stop_poll.load(std::memory_order_relaxed)) {
        {
          const Span sp("SimulationService::statuses");
          const double now_s = seconds_since(start);
          for (const serve::JobStatus& st : svc->statuses()) {
            if (st.state != serve::JobState::kQueued &&
                first_running.find(st.id) == first_running.end()) {
              first_running[st.id] = now_s;
            }
          }
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kPollMs));
        const auto now = Clock::now();
        poll_gaps_ms.push_back(
            std::chrono::duration<double, std::milli>(now - last).count());
        last = now;
      }
    });
  }

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Planned& p = schedule[i];
    std::this_thread::sleep_until(start + since_start(p.due_s));
    Submitted& s = subs[i];
    s.plan = &p;
    const Span sp("SimulationService::submit");
    const auto t0 = Clock::now();
    s.submit_s = std::chrono::duration<double>(t0 - start).count();
    lag_ms.push_back(1e3 * (s.submit_s - p.due_s));
    const serve::Admission adm =
        svc->submit(make_spec(kKinds[p.kind], p.priority, static_cast<int>(i)));
    submit_us.push_back(1e6 * seconds_since(t0));
    s.admitted = adm.admitted;
    s.id = adm.id;
    if (adm.admitted) by_id[adm.id] = i;
  }
  {
    const Span sp("SimulationService::wait_idle");
    svc->wait_idle();
  }
  const double elapsed = seconds_since(start);
  poller_stop.join();

  // --- outcomes ------------------------------------------------------------
  const serve::ServiceStats st = svc->stats();
  r.check(st.admitted == st.completed + st.failed + st.cancelled + st.queued +
                             st.running,
          "service conservation: admitted != completed + failed + "
          "cancelled + queued + running");
  // (due time, latency) of every completed job, put in due-time order
  // below for the chunked p95.
  std::vector<std::pair<double, double>> latency_by_due;
  std::vector<double> queue_ms, run_ms;
  double zone_updates = 0.0;
  long long completed = 0, failed = 0, h2d_steps = 0;
  double h2d_bytes = 0.0;
  for (const serve::JobStatus& js : svc->statuses()) {
    const auto it = by_id.find(js.id);
    if (it == by_id.end()) continue;  // warm-up job
    const Submitted& s = subs[it->second];
    const JobKind& kind = kKinds[s.plan->kind];
    if (js.state != serve::JobState::kCompleted) {
      ++failed;
      continue;
    }
    ++completed;
    const double done_s = s.submit_s + 1e-3 * js.latency_ms;
    latency_by_due.emplace_back(s.plan->due_s,
                                1e3 * (done_s - s.plan->due_s));
    const long long zones =
        serve::spec_zones(make_spec(kind, serve::Priority::kNormal, 0));
    zone_updates += static_cast<double>(zones) * kind.steps;
    if (kind.validate) {
      r.check(std::isfinite(js.l1_error) && js.l1_error >= 0.0 &&
                  js.l1_error < kind.l1_tol,
              std::string("validation L1 error of ") + kind.problem + " = " +
                  fmt(js.l1_error) + " (tolerance " +
                  fmt(kind.l1_tol) + ")");
    }
    if (a.trace) {
      const auto fr = first_running.find(js.id);
      if (fr != first_running.end()) {
        queue_ms.push_back(1e3 * (fr->second - s.submit_s));
        run_ms.push_back(1e3 * (done_s - fr->second));
      }
      if (kind.pipeline == HostPipeline::kDevice) {
#if RSHC_OBS_ENABLED
        if (const auto snap = svc->job_snapshot(js.id)) {
          if (const auto* e = snap->find("device.h2d.bytes")) {
            h2d_bytes += e->value;
          }
        }
#endif
        h2d_steps += kind.steps;
      }
    }
  }
  for (const Submitted& s : subs) failed += s.admitted ? 0 : 1;

  r.attempted = static_cast<long long>(subs.size());
  r.failed = failed;
  std::sort(latency_by_due.begin(), latency_by_due.end());
  std::vector<double> latency_ms;
  for (const auto& [due, ms] : latency_by_due) latency_ms.push_back(ms);
  const Summary lat = summarize(latency_ms);
  r.set("zone_updates_per_s", zone_updates / elapsed, "1/s");
  r.set("ops_per_s", static_cast<double>(completed) / elapsed, "1/s");
  r.set("latency_p50_ms", lat.p50, "ms");
  r.set("latency_p95_ms", lat.p95_chunked, "ms");
  r.set("setup_s", median(setup), "s");
  r.set("bench.samples", static_cast<double>(lat.n), "count");
  r.set("bench.failed_ratio",
        static_cast<double>(failed) / static_cast<double>(subs.size()),
        "ratio");
  note("job latency (due -> terminal): " + describe(lat) + "; " +
       std::to_string(completed) + " completed in " + fmt(elapsed) + " s");
  if (!a.trace) return;

  const auto& cache = serve::RiemannCache::global();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  const double admitted = static_cast<double>(st.admitted - stats0.admitted);
  r.set("serve.submit_us_p50", median(submit_us), "us");
  r.set("serve.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms");
  r.set("serve.queue_wait_ms_p95", quantile(queue_ms, 0.95), "ms");
  r.set("serve.run_ms_p50", quantile(run_ms, 0.5), "ms");
  r.set("serve.poll_ms", median(poll_gaps_ms), "ms");
  r.set("serve.preemptions_per_job",
        static_cast<double>(st.preempted - stats0.preempted) / admitted,
        "count");
  r.set("serve.reject_ratio",
        static_cast<double>(st.rejected - stats0.rejected) /
            static_cast<double>(st.submitted - stats0.submitted),
        "ratio");
  r.set("serve.riemann_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0,
        "ratio");
  r.set("device.h2d_bytes_per_step",
        h2d_steps > 0 ? h2d_bytes / static_cast<double>(h2d_steps) : 0.0, "B");
  r.set("bench.generator_lag_ms_p95", quantile(lag_ms, 0.95), "ms");

  // Checkpoint I/O on the state of the mix's 2D SRHD job (the size a
  // preempted kh job writes and reads back).
  const long long n = kKinds[3].resolution;
  rshc::solver::SrhdSolver::Options opt;
  opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kPeriodic);
  rshc::solver::SrhdSolver s(
      rshc::mesh::Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5), opt);
  s.initialize(rshc::problems::kelvin_helmholtz_ic({}));
  const std::string path = a.workdir + "/perfbench_ckpt.bin";
  r.set("io.checkpoint_write_ms", checkpoint_ms(path, s, true), "ms");
  r.set("io.checkpoint_read_ms", checkpoint_ms(path, s, false), "ms");
}

}  // namespace perfbench
