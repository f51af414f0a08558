// Heterogeneous execution demo: the same Kelvin-Helmholtz run stepped on
// the host pipeline and on the simulated accelerator (device-resident
// state, halo-only transfers), plus a dataflow-vs-bulk-sync comparison of
// the block-parallel stepping.
//
//   ./examples/heterogeneous [N=128] [threads=4] [steps=20]
//
// This is the "zero to offload" tour of the device and runtime layers the
// paper's heterogeneous pipeline rests on.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "rshc/common/config.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/obs/obs.hpp"
#include "rshc/parallel/thread_pool.hpp"
#include "rshc/problems/problems.hpp"
#include "rshc/solver/fv_solver.hpp"

int main(int argc, char** argv) {
  using namespace rshc;
  const Config cfg = Config::from_args(argc, argv);
  const long long n = cfg.get_int("N", 128);
  const unsigned threads =
      static_cast<unsigned>(cfg.get_int("threads", 4));
  const int steps = static_cast<int>(cfg.get_int("steps", 20));

  const mesh::Grid grid = mesh::Grid::make_2d(n, n, 0.0, 1.0, 0.0, 1.0);
  solver::SrhdSolver::Options opt;
  opt.bc = mesh::BoundarySpec::all(mesh::BcType::kPeriodic);
  opt.physics.eos = eos::IdealGas(4.0 / 3.0);
  const double dt = 0.2 / static_cast<double>(n);

  // Part 1: one KH run per pipeline. Both execute the same compiled
  // kernels, so the device run must land on the host run's exact bits.
  std::printf("# Part 1: %d steps of a %lldx%lld KH run per pipeline\n",
              steps, n, n);
  std::printf("%-14s %-12s %-12s\n", "pipeline", "seconds", "Mzones/s");
  std::unique_ptr<solver::SrhdSolver> runs[2];
  const solver::HostPipeline pipelines[2] = {
      solver::HostPipeline::kBatchedSimd, solver::HostPipeline::kDevice};
  for (int r = 0; r < 2; ++r) {
    auto o = opt;
    o.pipeline = pipelines[r];
    runs[r] = std::make_unique<solver::SrhdSolver>(grid, o);
    runs[r]->initialize(problems::kelvin_helmholtz_ic({}));
    WallTimer t;
    for (int i = 0; i < steps; ++i) runs[r]->step(dt);
    runs[r]->sync_from_device();  // no-op on the host pipeline
    const double secs = t.seconds();
    std::printf("%-14s %-12.4f %-12.2f\n",
                std::string(solver::host_pipeline_name(pipelines[r])).c_str(),
                secs,
                static_cast<double>(grid.num_cells()) * steps / secs / 1e6);
  }
  const auto host = runs[0]->block(0).prim().flat();
  const auto dev = runs[1]->block(0).prim().flat();
  const bool identical =
      std::memcmp(host.data(), dev.data(), host.size_bytes()) == 0;
  std::printf("# device state %s the host state\n",
              identical ? "is bitwise identical to" : "DIFFERS from");

  // Part 2: futurized dataflow vs bulk-synchronous stepping.
  std::printf("\n# Part 2: %d steps of a %lldx%lld run on %u workers, "
              "4x4 blocks\n",
              steps, n, n, threads);
  auto make_solver = [&] {
    auto o = opt;
    o.blocks = {4, 4, 1};
    auto s = std::make_unique<solver::SrhdSolver>(grid, o);
    s->initialize(problems::kelvin_helmholtz_ic({}));
    return s;
  };
  parallel::ThreadPool pool(threads);

  auto bulk = make_solver();
  WallTimer t1;
  bulk->run_steps_bulksync(steps, dt, pool);
  const double t_bulk = t1.seconds();

  auto flow = make_solver();
  WallTimer t2;
  flow->run_steps_dataflow(steps, dt, pool);
  const double t_flow = t2.seconds();

  std::printf("%-14s %-12s %-12s\n", "mode", "seconds", "steps/s");
  std::printf("%-14s %-12.4f %-12.2f\n", "bulk-sync", t_bulk,
              steps / t_bulk);
  std::printf("%-14s %-12.4f %-12.2f\n", "dataflow", t_flow,
              steps / t_flow);
  std::printf("# dataflow speedup: %.2fx (expect ~1 on a 1-core host; the "
              "gap widens with cores and block count)\n",
              t_bulk / t_flow);
  rshc::obs::maybe_dump("heterogeneous");
  return identical ? 0 : 1;
}
