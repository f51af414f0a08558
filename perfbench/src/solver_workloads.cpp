// Solver workloads: SRHD Kelvin-Helmholtz on a periodic 2D box, stepped
// serially (kh2d_serial), through the task-graph dataflow path on a thread
// pool (kh2d_pool4), and over message-passing ranks with injected message
// latency (kh2d_ranks2). See perfbench/README.md for why each exists.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "rshc/comm/communicator.hpp"
#include "rshc/mesh/grid.hpp"
#include "rshc/parallel/task_graph.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/riemann/kernels.hpp"
#include "rshc/solver/distributed.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/srhd/kernels.hpp"

namespace perfbench {
namespace {

using rshc::mesh::Grid;
using rshc::solver::DistributedSrhdSolver;
using rshc::solver::SrhdSolver;

constexpr int kStages = 3;     // SSP-RK3, the solver default
constexpr int kSetupReps = 15;  // setup_s is the median of these
constexpr int kBlock = 8;      // samples per traced/untraced block
constexpr int kPrefixSteps = 4;
constexpr int kChunk = 4;      // steps per run_steps_dataflow call
// Two ranks (a 2x1 split). With four rank threads on a 4-core host any
// other runnable thread stalled one rank, and with it every rank's step:
// the step p95 of ten-run sets spread up to 0.26 of its median.
constexpr int kRanks = 2;

SrhdSolver::Options kh_options(std::array<int, 3> blocks) {
  SrhdSolver::Options opt;
  opt.recon = rshc::recon::Method::kPLMMC;
  opt.cfl = 0.4;
  opt.bc = rshc::mesh::BoundarySpec::all(rshc::mesh::BcType::kPeriodic);
  opt.physics.eos = rshc::eos::IdealGas(4.0 / 3.0);
  opt.physics.riemann = rshc::riemann::Solver::kHLLC;
  opt.blocks = blocks;
  return opt;
}

Grid kh_grid(long long n) {
  return Grid::make_2d(n, n, -0.5, 0.5, -0.5, 0.5);
}

/// The double shear layer of problems::kelvin_helmholtz_ic with the single
/// seed-independent mode replaced by four seeded modes (k = 1..4, random
/// amplitude and phase). Inputs are all the seed changes.
rshc::problems::SrhdIc seeded_kh(std::uint64_t seed) {
  struct Mode {
    double k, amp, phase;
  };
  Rng rng(seed);
  std::array<Mode, 4> modes{};
  for (std::size_t m = 0; m < modes.size(); ++m) {
    modes[m] = {static_cast<double>(m + 1), rng.uniform(0.002, 0.01),
                rng.uniform(0.0, 2.0 * std::numbers::pi)};
  }
  constexpr double kShear = 0.25;
  constexpr double kWidth = 0.05;
  return [modes](double x, double y, double) {
    rshc::srhd::Prim p;
    const double profile = std::tanh((y + 0.25) / kWidth) -
                           std::tanh((y - 0.25) / kWidth) - 1.0;
    p.rho = 1.0;
    p.vx = kShear * profile;
    const double lobes =
        std::exp(-(y - 0.25) * (y - 0.25) / (4.0 * kWidth * kWidth)) +
        std::exp(-(y + 0.25) * (y + 0.25) / (4.0 * kWidth * kWidth));
    double wave = 0.0;
    for (const Mode& m : modes) {
      wave += m.amp * std::sin(2.0 * std::numbers::pi * m.k * x + m.phase);
    }
    p.vy = kShear * wave * lobes;
    p.p = 1.0;
    return p;
  };
}

// Untimed stepping before every timed window: the first multi-threaded
// run after the host sat idle measured 2-3x slower than later ones.
double warmup_seconds(const Args& a) {
  return std::clamp(0.2 * a.seconds, 0.5, 2.0);
}

/// Median wall time of `fn` over repeated calls (~0.2 s, at least 5).
template <class Fn>
double seconds_per_call(const char* span, Fn&& fn) {
  fn();  // first touch
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 5 || seconds_since(start) < 0.2) {
    const Span sp(span);
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Timed stepping window: call `sample()` (one timed unit advancing
/// `steps` steps, returning true when the unit floored a zone) until
/// `seconds` of wall time have passed. In a traced run blocks of kBlock
/// samples alternate between spans on and off.
struct Window {
  std::vector<double> step_ms;  ///< one entry per sample: its time / steps
  long long steps = 0;
  long long failed_steps = 0;
  double wall_s = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;
  long long traced_steps = 0, untraced_steps = 0;
};

template <class Sample>
Window run_window(bool trace, double seconds, int steps_per_sample,
                  Sample&& sample) {
  Window w;
  const auto start = Clock::now();
  for (long long k = 0; seconds_since(start) < seconds; ++k) {
    const bool traced = trace && (k / kBlock) % 2 == 0;
    Tracer::set_thread_tracing(traced);
    const auto t0 = Clock::now();
    const bool floored = sample();
    const double dt = seconds_since(t0);
    w.step_ms.push_back(1e3 * dt / steps_per_sample);
    w.steps += steps_per_sample;
    if (floored) w.failed_steps += steps_per_sample;
    (traced ? w.traced_s : w.untraced_s) += dt;
    (traced ? w.traced_steps : w.untraced_steps) += steps_per_sample;
  }
  Tracer::set_thread_tracing(true);
  w.wall_s = seconds_since(start);
  return w;
}

void report_e2e(Result& r, const std::vector<double>& step_ms,
                long long steps, double wall_s, long long zones,
                double setup_s) {
  const Summary s = summarize(step_ms);
  r.set("zone_updates_per_s",
        static_cast<double>(zones) * static_cast<double>(steps) / wall_s,
        "1/s");
  r.set("ops_per_s", static_cast<double>(steps) / wall_s, "1/s");
  r.set("latency_p50_ms", s.p50, "ms");
  r.set("latency_p95_ms", s.p95_chunked, "ms");
  r.set("setup_s", setup_s, "s");
  r.set("bench.samples", static_cast<double>(s.n), "count");
  note("step wall time: " + describe(s));
  if (s.n < 200) {
    note("warning: fewer than 200 step samples, p95 has <10 beyond it");
  }
}

void report_overhead(Result& r, const Window& w) {
  if (w.traced_steps == 0 || w.untraced_steps == 0) return;
  const double traced = static_cast<double>(w.traced_steps) / w.traced_s;
  const double untraced =
      static_cast<double>(w.untraced_steps) / w.untraced_s;
  // Share of zone_updates_per_s the spans cost (same zones per step).
  r.set("bench.trace_overhead_frac", (untraced - traced) / untraced,
        "ratio");
  note("zone updates/s traced vs untraced blocks: " +
       fmt(traced) + " vs " + fmt(untraced) +
       " steps/s");
}

/// Every primitive variable of the interior, global row-major order.
std::vector<std::vector<double>> gather_all(const SrhdSolver& s) {
  std::vector<std::vector<double>> out;
  for (int v = 0; v < rshc::srhd::kNumVars; ++v) {
    out.push_back(s.gather_prim_var(v));
  }
  return out;
}

bool all_finite(const std::vector<std::vector<double>>& vars) {
  for (const auto& v : vars) {
    for (const double x : v) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v].size() != b[v].size() ||
        std::memcmp(a[v].data(), b[v].data(), a[v].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

/// Serial single-block reference: kPrefixSteps fixed-dt steps.
std::vector<std::vector<double>> serial_reference(
    const Grid& grid, const rshc::problems::SrhdIc& ic, double dt) {
  SrhdSolver ref(grid, kh_options({1, 1, 1}));
  ref.initialize(ic);
  for (int i = 0; i < kPrefixSteps; ++i) ref.step(dt);
  return gather_all(ref);
}

/// Build the solver kSetupReps times (construction + initialize) and keep
/// the last one; returns the median build time.
double build_solver(std::unique_ptr<SrhdSolver>& s, const Grid& grid,
                    const SrhdSolver::Options& opt,
                    const rshc::problems::SrhdIc& ic) {
  std::vector<double> t;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    const Span sp("bench.setup");
    const auto t0 = Clock::now();
    s = std::make_unique<SrhdSolver>(grid, opt);
    s->initialize(ic);
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Per-layer split of one step from outside: each public solver phase
/// timed on its own on the current state. solver.other_ms is what a step
/// spends beyond kStages x (fill + rhs + c2p) + compute_dt.
void report_solver_layers(Result& r, SrhdSolver& s, double step_ms) {
  const double fill =
      1e3 * seconds_per_call("FvSolver::fill_all_ghosts",
                             [&] { s.fill_all_ghosts(); });
  const double rhs = 1e3 * seconds_per_call("FvSolver::compute_rhs_all",
                                            [&] { s.compute_rhs_all(); });
  // recover_all_prims re-fills the ghosts after its con2prim sweep.
  const double c2p =
      1e3 * seconds_per_call("FvSolver::recover_all_prims",
                             [&] { s.recover_all_prims(); }) -
      fill;
  const double dt = 1e3 * seconds_per_call("FvSolver::compute_dt", [&] {
                      volatile double x = s.compute_dt();
                      (void)x;
                    });
  r.set("solver.fill_ghosts_ms", fill, "ms");
  r.set("solver.rhs_ms", rhs, "ms");
  r.set("solver.c2p_ms", c2p, "ms");
  r.set("solver.compute_dt_ms", dt, "ms");
  r.set("solver.other_ms", step_ms - kStages * (fill + rhs + c2p) - dt,
        "ms");
  r.set("solver.c2p_share", kStages * c2p / step_ms, "ratio");
}

/// Batched kernels timed on arrays gathered from block 0 of the workload's
/// own state. Bytes per zone below are computed from the arrays each call
/// reads and writes, not measured; the working sets fit in cache.
void report_kernels(Result& r, const SrhdSolver& s) {
  const rshc::mesh::Block& blk = s.block(0);
  const auto& opt = s.options();
  const auto nx = static_cast<std::size_t>(blk.total(0));
  const int j0 = blk.begin(1), j1 = blk.end(1);
  const std::size_t rows = static_cast<std::size_t>(j1 - j0);
  const std::size_t row0 = static_cast<std::size_t>(j0) * nx;
  constexpr int kNv = rshc::srhd::kNumVars;

  // PLM-MC along x over every interior row (x ghosts included).
  std::array<std::vector<double>, kNv> ql, qr;
  for (int v = 0; v < kNv; ++v) {
    ql[v].assign(rows * nx, 0.0);
    qr[v].assign(rows * nx, 0.0);
  }
  const double recon_s = seconds_per_call("recon::reconstruct_rows", [&] {
    for (int v = 0; v < kNv; ++v) {
      rshc::recon::reconstruct_rows(opt.recon, rows, nx,
                                    blk.prim().var(v).data() + row0, nx,
                                    ql[v].data(), qr[v].data(), nx);
    }
  });
  r.set("recon.plm_ns_per_zone",
        1e9 * recon_s / static_cast<double>(rows * nx), "ns");

  // HLLC on the faces those reconstructions define: left = qr[i],
  // right = ql[i+1], for i in [radius, nx - radius - 1).
  const auto rad =
      static_cast<std::size_t>(rshc::recon::stencil_radius(opt.recon));
  const std::size_t per_row = nx - 2 * rad - 1;
  const std::size_t nf = rows * per_row;
  std::array<std::vector<double>, kNv> wl, wr, f;
  std::array<const double*, kNv> pl{}, pr{};
  std::array<double*, kNv> pf{};
  for (int v = 0; v < kNv; ++v) {
    wl[v].resize(nf);
    wr[v].resize(nf);
    f[v].resize(nf);
    for (std::size_t row = 0; row < rows; ++row) {
      for (std::size_t i = 0; i < per_row; ++i) {
        wl[v][row * per_row + i] = qr[v][row * nx + rad + i];
        wr[v][row * per_row + i] = ql[v][row * nx + rad + i + 1];
      }
    }
    pl[v] = wl[v].data();
    pr[v] = wr[v].data();
    pf[v] = f[v].data();
  }
  const auto& c2p_opt = opt.physics.c2p;
  const double face_s = seconds_per_call("riemann::srhd_faces_n", [&] {
    rshc::riemann::kernels::simd::srhd_faces_n(
        nf, 0, rshc::riemann::Solver::kHLLC, pl.data(), pr.data(), pf.data(),
        opt.physics.eos, c2p_opt.rho_floor, c2p_opt.p_floor);
  });
  r.set("riemann.hllc_ns_per_face", 1e9 * face_s / static_cast<double>(nf),
        "ns");

  // Con2prim on the interior conservatives.
  const int i0 = blk.begin(0), i1 = blk.end(0);
  std::array<std::vector<double>, kNv> u, w;
  for (int v = 0; v < kNv; ++v) {
    for (int j = j0; j < j1; ++j) {
      for (int i = i0; i < i1; ++i) u[v].push_back(blk.cons()(v, 0, j, i));
    }
    w[v].assign(u[v].size(), 0.0);
  }
  const std::size_t nz = u[0].size();
  const double c2p_s = seconds_per_call("srhd::cons_to_prim_n", [&] {
    rshc::srhd::kernels::simd::cons_to_prim_n(
        nz, u[0].data(), u[1].data(), u[2].data(), u[3].data(), u[4].data(),
        w[0].data(), w[1].data(), w[2].data(), w[3].data(), w[4].data(),
        opt.physics.eos.gamma(), c2p_opt);
  });
  r.set("srhd.con2prim_ns_per_zone", 1e9 * c2p_s / static_cast<double>(nz),
        "ns");
  note("kernel bytes per zone (computed from the arrays touched, not "
       "measured): recon 120 B/zone (5 vars x 1 read + 2 writes), HLLC "
       "120 B/face (10 reads + 5 writes), con2prim 80 B/zone (5 + 5)");
}

/// Shared tail of the two shared-memory solver workloads.
void check_and_report_state(Result& r, const SrhdSolver& s,
                            const Window& w, long long zones, double setup_s,
                            long long floored_before_window,
                            long long iters_before_window) {
  const auto& st = s.c2p_stats();
  r.attempted = w.steps;
  r.failed = w.failed_steps;
  r.check(st.floored_zones == 0, "zones floored during the run: " +
                                     std::to_string(st.floored_zones));
  r.check(all_finite(gather_all(s)), "non-finite primitive state");
  report_e2e(r, w.step_ms, w.steps, w.wall_s, zones, setup_s);
  r.set("solver.floored_zones",
        static_cast<double>(st.floored_zones - floored_before_window),
        "count");
  r.set("srhd.c2p_iters_per_zone",
        static_cast<double>(st.total_iterations - iters_before_window) /
            static_cast<double>(zones * w.steps * kStages),
        "count");
  r.set("bench.failed_ratio",
        static_cast<double>(w.failed_steps) / static_cast<double>(w.steps),
        "ratio");
}

}  // namespace

// ---------------------------------------------------------------------------

void run_kh2d_serial(const Args& a, Result& r) {
  constexpr long long kN = 192;
  const Grid grid = kh_grid(kN);
  const auto ic = seeded_kh(a.seed);
  std::unique_ptr<SrhdSolver> s;
  const double setup_s = build_solver(s, grid, kh_options({1, 1, 1}), ic);
  const auto c0 = s->total_cons();

  const auto warm0 = Clock::now();
  while (seconds_since(warm0) < warmup_seconds(a)) s->step(s->compute_dt());
  r.set("bench.warmup_s", seconds_since(warm0), "s");

  const auto st0 = s->c2p_stats();
  const Window w = run_window(a.trace, a.seconds, 1, [&] {
    const Span sp("bench.step");
    const long long before = s->c2p_stats().floored_zones;
    double dt = 0.0;
    {
      const Span c("FvSolver::compute_dt");
      dt = s->compute_dt();
    }
    {
      const Span c("FvSolver::step");
      s->step(dt);
    }
    return s->c2p_stats().floored_zones != before;
  });

  // Periodic box: D and tau totals are conserved to round-off.
  const auto c1 = s->total_cons();
  const double dd = std::abs(c1.d - c0.d) / std::abs(c0.d);
  const double dtau = std::abs(c1.tau - c0.tau) / std::abs(c0.tau);
  note("conservation drift over " + std::to_string(s->steps_taken()) +
       " steps: D " + fmt(dd) + ", tau " + fmt(dtau));
  r.check(dd < 1e-11 && dtau < 1e-11,
          "D/tau not conserved: rel drift " + fmt(dd) + " / " +
              fmt(dtau));
  check_and_report_state(r, *s, w, kN * kN, setup_s, st0.floored_zones,
                         st0.total_iterations);
  if (!a.trace) return;

  report_overhead(r, w);
  report_solver_layers(r, *s, median(w.step_ms));
  report_kernels(r, *s);
}

void run_kh2d_pool4(const Args& a, Result& r) {
  constexpr long long kN = 256;
  const Grid grid = kh_grid(kN);
  const auto ic = seeded_kh(a.seed);
  const auto opt = kh_options({4, 4, 1});
  const double dt_fixed = 0.25 / static_cast<double>(kN);

  std::unique_ptr<SrhdSolver> s;
  std::unique_ptr<rshc::parallel::ThreadPool> pool;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    pool.reset();
    const Span sp("bench.setup");
    const auto t0 = Clock::now();
    pool = std::make_unique<rshc::parallel::ThreadPool>(4);
    s = std::make_unique<SrhdSolver>(grid, opt);
    s->initialize(ic);
    setup.push_back(seconds_since(t0));
  }

  // Untimed prefix: the dataflow path must equal the serial single-block
  // solver bitwise (the identity test_parallel_stress pins).
  s->run_steps_dataflow(kPrefixSteps, dt_fixed, *pool);
  r.check(bitwise_equal(gather_all(*s), serial_reference(grid, ic, dt_fixed)),
          "run_steps_dataflow prefix differs from the serial solver");

  const auto warm0 = Clock::now();
  while (seconds_since(warm0) < warmup_seconds(a)) {
    s->run_steps_dataflow(kChunk, s->compute_dt(), *pool);
  }
  r.set("bench.warmup_s", seconds_since(warm0), "s");

  const auto st0 = s->c2p_stats();
  const long long tasks0 = rshc::parallel::introspect::pool_tasks_finished();
  const long long nodes0 = rshc::parallel::introspect::graph_nodes_finished();
  const Window w = run_window(a.trace, a.seconds, kChunk, [&] {
    const Span sp("bench.chunk");
    const long long before = s->c2p_stats().floored_zones;
    double dt = 0.0;
    {
      const Span c("FvSolver::compute_dt");
      dt = s->compute_dt();
    }
    {
      const Span c("FvSolver::run_steps_dataflow");
      s->run_steps_dataflow(kChunk, dt, *pool);
    }
    return s->c2p_stats().floored_zones != before;
  });
  const double steps = static_cast<double>(w.steps);
  const double tasks_per_step =
      static_cast<double>(rshc::parallel::introspect::pool_tasks_finished() -
                          tasks0) /
      steps;
  const double nodes_per_step =
      static_cast<double>(rshc::parallel::introspect::graph_nodes_finished() -
                          nodes0) /
      steps;
  check_and_report_state(r, *s, w, kN * kN, median(setup),
                         st0.floored_zones, st0.total_iterations);
  if (!a.trace) return;

  report_overhead(r, w);
  r.set("parallel.tasks_per_step", tasks_per_step, "count");
  r.set("parallel.graph_nodes_per_step", nodes_per_step, "count");
  // The same solver (same 4x4 blocks) stepped serially on this thread.
  const Window serial = run_window(false, std::max(1.0, 0.25 * a.seconds), 1,
                                   [&] {
                                     const Span sp("FvSolver::step");
                                     s->step(s->compute_dt());
                                     return false;
                                   });
  const double serial_ms = median(serial.step_ms);
  r.set("parallel.speedup_vs_serial", serial_ms / median(w.step_ms),
        "ratio");
  report_solver_layers(r, *s, serial_ms);
  report_kernels(r, *s);
}

// ---------------------------------------------------------------------------

namespace {

struct RankLog {
  std::vector<double> step_ms;  ///< compute_dt + step, per timed step
  std::vector<double> dt_ms;    ///< compute_dt alone (min-allreduce wait)
  std::vector<char> traced;
  std::vector<char> floored;
  double step_call_s = 0.0;  ///< step() alone, summed over the window
  long long floored_total = 0;
};

struct RanksRun {
  std::array<RankLog, kRanks> logs;
  std::vector<double> setup_s;
  double warmup_s = 0.0;
  bool prefix_ok = true;
  bool finite = true;
  std::size_t messages = 0;
  std::size_t bytes = 0;

  /// Per-step wall time: the slowest rank's compute_dt + step.
  [[nodiscard]] std::vector<double> step_max_ms() const {
    std::vector<double> out(logs[0].step_ms.size(), 0.0);
    for (const RankLog& l : logs) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = std::max(out[i], l.step_ms[i]);
      }
    }
    return out;
  }
};

/// One World of kRanks rank threads running the distributed KH solver.
/// The main configuration (prefix != nullptr) also builds kSetupReps times
/// and checks the untimed prefix against `prefix`; auxiliary
/// configurations only time a window.
RanksRun run_ranks(const Args& a, const Grid& grid,
                   const rshc::problems::SrhdIc& ic,
                   rshc::comm::TransferModel model, bool overlap,
                   double seconds,
                   const std::vector<std::vector<double>>* prefix) {
  RanksRun run;
  rshc::comm::World world(kRanks, model);
  const auto opt = kh_options({1, 1, 1});
  const double dt_fixed = 0.25 / static_cast<double>(grid.extent(0));
  const bool trace = a.trace && prefix != nullptr;
  std::array<std::exception_ptr, kRanks> errors{};

  auto body = [&](int rank) {
    rshc::comm::Communicator comm = world.communicator(rank);
    RankLog& log = run.logs[static_cast<std::size_t>(rank)];
    std::unique_ptr<DistributedSrhdSolver> s;
    const int reps = prefix != nullptr ? kSetupReps : 1;
    for (int rep = 0; rep < reps; ++rep) {
      s.reset();
      comm.barrier();
      const Span sp("bench.setup");
      const auto t0 = Clock::now();
      s = std::make_unique<DistributedSrhdSolver>(grid, comm, opt);
      s->set_overlap(overlap);
      s->initialize(ic);
      comm.barrier();
      if (rank == 0) run.setup_s.push_back(seconds_since(t0));
    }
    if (prefix != nullptr) {
      for (int i = 0; i < kPrefixSteps; ++i) s->step(dt_fixed);
      const std::array<int, 5> vars = {0, 1, 2, 3, 4};
      const auto got = s->gather_prim_vars_root(vars);
      if (rank == 0) run.prefix_ok = bitwise_equal(got, *prefix);
    }

    // Step in blocks of kBlock; rank 0 decides after each block whether the
    // phase goes on and broadcasts it (outside the timed steps).
    auto phase = [&](double secs, bool timed) {
      const auto start = Clock::now();
      for (long long k = 0;; ++k) {
        Tracer::set_thread_tracing(timed && trace && k % 2 == 0);
        for (int i = 0; i < kBlock; ++i) {
          const Span sp("bench.step");
          const long long before = s->local().c2p_stats().floored_zones;
          const auto t0 = Clock::now();
          double dt = 0.0;
          {
            const Span c("DistributedSolver::compute_dt");
            dt = s->compute_dt();
          }
          const auto t1 = Clock::now();
          {
            const Span c("DistributedSolver::step");
            s->step(dt);
          }
          if (!timed) continue;
          const double dt_s = std::chrono::duration<double>(t1 - t0).count();
          const double step_s = seconds_since(t1);
          log.dt_ms.push_back(1e3 * dt_s);
          log.step_ms.push_back(1e3 * (dt_s + step_s));
          log.step_call_s += step_s;
          log.traced.push_back(timed && trace && k % 2 == 0 ? 1 : 0);
          log.floored.push_back(
              s->local().c2p_stats().floored_zones != before ? 1 : 0);
        }
        std::array<double, 1> go = {
            rank == 0 && seconds_since(start) < secs ? 1.0 : 0.0};
        comm.bcast(go, 0);
        if (go[0] == 0.0) break;
      }
      Tracer::set_thread_tracing(true);
    };

    const auto warm0 = Clock::now();
    phase(warmup_seconds(a), false);
    if (rank == 0) run.warmup_s = seconds_since(warm0);
    comm.barrier();
    const std::size_t msg0 = world.total_messages();
    const std::size_t bytes0 = world.total_bytes();
    comm.barrier();
    phase(seconds, true);
    comm.barrier();
    if (rank == 0) {
      run.messages = world.total_messages() - msg0;
      run.bytes = world.total_bytes() - bytes0;
    }
    comm.barrier();
    log.floored_total = s->local().c2p_stats().floored_zones;
    const std::array<int, 5> vars = {0, 1, 2, 3, 4};
    const auto state = s->gather_prim_vars_root(vars);
    if (rank == 0) run.finite = all_finite(state);
  };

  std::vector<std::thread> threads;
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        body(rank);
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return run;
}

}  // namespace

void run_kh2d_ranks2(const Args& a, Result& r) {
  // 128 x 64 zones per rank, about what each of four ranks had at 192^2,
  // so halo latency is as large a share of a step.
  constexpr long long kN = 128;
  const Grid grid = kh_grid(kN);
  const auto ic = seeded_kh(a.seed);
  const double dt_fixed = 0.25 / static_cast<double>(kN);
  rshc::comm::TransferModel lat;
  lat.latency_sec = 1e-3;
  lat.jitter_sec = 0.2e-3;

  const auto ref = serial_reference(grid, ic, dt_fixed);
  const RanksRun run = run_ranks(a, grid, ic, lat, true, a.seconds, &ref);
  r.check(run.prefix_ok,
          "distributed (overlap) prefix differs from the serial solver");
  r.check(run.finite, "non-finite primitive state");
  long long floored = 0;
  for (const RankLog& l : run.logs) floored += l.floored_total;
  r.check(floored == 0,
          "zones floored during the run: " + std::to_string(floored));

  const std::vector<double> step_ms = run.step_max_ms();
  const auto steps = static_cast<long long>(step_ms.size());
  double wall_s = 0.0;
  long long failed = 0;
  double traced_s = 0.0, untraced_s = 0.0;
  long long traced_n = 0, untraced_n = 0;
  for (std::size_t i = 0; i < step_ms.size(); ++i) {
    wall_s += 1e-3 * step_ms[i];
    bool any_floored = false;
    for (const RankLog& l : run.logs) any_floored |= l.floored[i] != 0;
    failed += any_floored ? 1 : 0;
    const bool traced = run.logs[0].traced[i] != 0;
    (traced ? traced_s : untraced_s) += 1e-3 * step_ms[i];
    (traced ? traced_n : untraced_n) += 1;
  }
  r.attempted = steps;
  r.failed = failed;
  r.set("bench.warmup_s", run.warmup_s, "s");
  r.set("bench.failed_ratio",
        static_cast<double>(failed) / static_cast<double>(steps), "ratio");
  r.set("solver.floored_zones", static_cast<double>(floored), "count");
  report_e2e(r, step_ms, steps, wall_s, kN * kN, median(run.setup_s));
  if (!a.trace) return;

  Window w;
  w.traced_s = traced_s;
  w.untraced_s = untraced_s;
  w.traced_steps = traced_n;
  w.untraced_steps = untraced_n;
  report_overhead(r, w);

  const double overlap_ms = median(step_ms);
  r.set("comm.step_ms_rank_max", overlap_ms, "ms");
  std::vector<double> busy, dt_ms;
  for (const RankLog& l : run.logs) {
    busy.push_back(l.step_call_s);
    dt_ms.insert(dt_ms.end(), l.dt_ms.begin(), l.dt_ms.end());
  }
  double mean_busy = 0.0;
  for (const double b : busy) mean_busy += b / kRanks;
  r.set("comm.rank_imbalance",
        *std::max_element(busy.begin(), busy.end()) / mean_busy, "ratio");
  r.set("comm.compute_dt_ms", median(dt_ms), "ms");
  r.set("comm.messages_per_step",
        static_cast<double>(run.messages) / static_cast<double>(steps),
        "count");
  r.set("comm.bytes_per_step",
        static_cast<double>(run.bytes) / static_cast<double>(steps), "B");

  // Share of the injected latency the overlapped exchange hides:
  // (sync - overlap) / (sync - sync at zero latency), clamped to [0, 1].
  const double aux_s = std::max(1.0, 0.25 * a.seconds);
  const double sync_ms = median(
      run_ranks(a, grid, ic, lat, false, aux_s, nullptr).step_max_ms());
  const double sync0_ms =
      median(run_ranks(a, grid, ic, rshc::comm::TransferModel{}, false, aux_s,
                       nullptr)
                 .step_max_ms());
  const double hidden =
      sync_ms > sync0_ms ? (sync_ms - overlap_ms) / (sync_ms - sync0_ms) : 0.0;
  r.set("comm.latency_hidden_frac", std::clamp(hidden, 0.0, 1.0), "ratio");
  note("step p50 ms: overlap " + fmt(overlap_ms) + ", sync " +
       fmt(sync_ms) + ", sync at zero latency " +
       fmt(sync0_ms));
}

}  // namespace perfbench
