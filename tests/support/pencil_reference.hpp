#pragma once
// Per-pencil, per-zone reference stepper: the memcmp oracle the batched
// host pipeline (and through it the device pipeline) is pinned against.
// It advances an FvSolver's state with the textbook method-of-lines loop —
// gather one pencil, reconstruct every primitive, limit + Riemann solve
// each interface through the per-zone Physics functions, accumulate flux
// differences cell by cell, then the RK combination and con2prim zone by
// zone — using only the solver's public surface (block(), grid(),
// options(), fill_all_ghosts(), set_time()) and the static Physics traits.
//
// The batched cores promise *bitwise* identical results: they reorganize
// data movement, never arithmetic. This header is compiled into the test
// binaries under the tree-default flags (no -march=native), the same
// recipe the per-zone physics uses everywhere else, so a last-ulp
// difference here means the batched path reassociated or contracted.
//
//   solver::SrhdSolver ref(grid, opt);
//   ref.initialize(ic);
//   testsupport::PencilReference<solver::SrhdPhysics> pencil(ref);
//   pencil.step(pencil.compute_dt());   // steps `ref` the per-zone way

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "rshc/mesh/field_array.hpp"
#include "rshc/recon/reconstruct.hpp"
#include "rshc/solver/fv_solver.hpp"
#include "rshc/time/integrator.hpp"

namespace rshc::testsupport {

template <typename Physics>
class PencilReference {
 public:
  using Solver = solver::FvSolver<Physics>;
  using Prim = typename Physics::Prim;
  using Cons = typename Physics::Cons;

  /// `s` must outlive the reference; its state is what step() advances.
  explicit PencilReference(Solver& s) : s_(s) {
    int max_extent = 1;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      u0_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      du_.emplace_back(Physics::kNumCons, blk.total(2), blk.total(1),
                       blk.total(0));
      max_extent =
          std::max({max_extent, blk.total(0), blk.total(1), blk.total(2)});
    }
    for (int v = 0; v < Physics::kNumPrim; ++v) {
      q_[v].resize(static_cast<std::size_t>(max_extent));
      ql_[v].resize(static_cast<std::size_t>(max_extent));
      qr_[v].resize(static_cast<std::size_t>(max_extent));
    }
  }

  /// CFL-limited dt from a per-zone max_speed scan.
  [[nodiscard]] double compute_dt() const {
    const auto& opt = s_.options();
    double vmax = 1e-30;
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const mesh::Block& blk = s_.block(b);
      const auto& w = blk.prim();
      for (int k = blk.begin(2); k < blk.end(2); ++k) {
        for (int j = blk.begin(1); j < blk.end(1); ++j) {
          for (int i = blk.begin(0); i < blk.end(0); ++i) {
            vmax = std::max(vmax, Physics::max_speed(
                                      Physics::load_prim(w, k, j, i),
                                      opt.physics, s_.grid().ndim()));
          }
        }
      }
    }
    return opt.cfl * s_.grid().min_dx() / vmax;
  }

  /// One step with the solver's stage structure: save u0, then per RK
  /// stage fill every block's ghosts, evaluate every rhs, update every
  /// block; finally the physics post-step hook and the clock.
  void step(double dt) {
    const auto& opt = s_.options();
    for (int b = 0; b < s_.num_blocks(); ++b) {
      const auto src = s_.block(b).cons().flat();
      std::copy(src.begin(), src.end(),
                u0_[static_cast<std::size_t>(b)].flat().begin());
    }
    for (int st = 0; st < time::num_stages(opt.integrator); ++st) {
      const auto coeffs = time::stage_coeffs(opt.integrator, st);
      s_.fill_all_ghosts();
      for (int b = 0; b < s_.num_blocks(); ++b) compute_rhs(b);
      for (int b = 0; b < s_.num_blocks(); ++b) update(b, coeffs, dt);
    }
    for (int b = 0; b < s_.num_blocks(); ++b) {
      mesh::Block& blk = s_.block(b);
      Physics::post_step(blk.cons(), blk.prim(), opt.physics, dt,
                         s_.grid().min_dx());
    }
    s_.set_time(s_.time() + dt);
  }

  /// Adaptive-dt advance with the same clipping as FvSolver::advance_to.
  int advance_to(double t_end, int max_steps = 1000000) {
    int steps = 0;
    while (s_.time() < t_end && steps < max_steps) {
      double dt = compute_dt();
      if (s_.time() + dt > t_end) dt = t_end - s_.time();
      step(dt);
      ++steps;
    }
    return steps;
  }

  /// con2prim health counters accumulated over every step() so far.
  [[nodiscard]] const solver::C2PStats& c2p_stats() const { return stats_; }

 private:
  void compute_rhs(int b) {
    const auto& opt = s_.options();
    const mesh::Block& blk = s_.block(b);
    mesh::FieldArray& du = du_[static_cast<std::size_t>(b)];
    du.fill(0.0);
    const auto& w = blk.prim();
    for (int axis = 0; axis < s_.grid().ndim(); ++axis) {
      const double inv_dx = 1.0 / s_.grid().dx(axis);
      const auto n = static_cast<std::size_t>(blk.total(axis));
      // Transverse axes (interior ranges only; corners are never needed).
      int a1 = -1;
      int a2 = -1;
      for (int a = 0; a < 3; ++a) {
        if (a == axis) continue;
        (a1 < 0 ? a1 : a2) = a;
      }
      for (int t2 = blk.begin(a2); t2 < blk.end(a2); ++t2) {
        for (int t1 = blk.begin(a1); t1 < blk.end(a1); ++t1) {
          auto local = [&](int f) {
            std::array<int, 3> idx{};
            idx[static_cast<std::size_t>(axis)] = f;
            idx[static_cast<std::size_t>(a1)] = t1;
            idx[static_cast<std::size_t>(a2)] = t2;
            return idx;  // (i, j, k)
          };

          // Load the pencil and reconstruct every primitive variable.
          for (int v = 0; v < Physics::kNumPrim; ++v) {
            for (std::size_t f = 0; f < n; ++f) {
              const auto c = local(static_cast<int>(f));
              q_[v][f] = w(v, c[2], c[1], c[0]);
            }
            recon::reconstruct(opt.recon, {q_[v].data(), n},
                               {ql_[v].data(), n}, {qr_[v].data(), n});
          }

          // Interfaces f+1/2 for f in [begin-1, end-1]: left state is the
          // right face of cell f, right state the left face of cell f+1.
          double comp[Physics::kNumPrim];
          for (int f = blk.begin(axis) - 1; f < blk.end(axis); ++f) {
            const auto uf = static_cast<std::size_t>(f);
            for (int v = 0; v < Physics::kNumPrim; ++v) comp[v] = qr_[v][uf];
            Prim wl = Physics::prim_from_components(comp);
            for (int v = 0; v < Physics::kNumPrim; ++v) {
              comp[v] = ql_[v][uf + 1];
            }
            Prim wr = Physics::prim_from_components(comp);
            Physics::limit_face_state(wl, opt.physics);
            Physics::limit_face_state(wr, opt.physics);
            const Cons flux =
                Physics::interface_flux(wl, wr, axis, opt.physics);

            if (f >= blk.begin(axis)) {
              const auto c = local(f);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += (-inv_dx) * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
            if (f + 1 < blk.end(axis)) {
              const auto c = local(f + 1);
              Cons acc = Physics::load_cons(du, c[2], c[1], c[0]);
              acc += inv_dx * flux;
              Physics::store_cons(du, c[2], c[1], c[0], acc);
            }
          }
        }
      }
    }
  }

  void update(int b, time::StageCoeffs coeffs, double dt) {
    const auto& opt = s_.options();
    mesh::Block& blk = s_.block(b);
    const mesh::FieldArray& u0 = u0_[static_cast<std::size_t>(b)];
    const mesh::FieldArray& du = du_[static_cast<std::size_t>(b)];
    auto& u = blk.cons();
    auto& w = blk.prim();
    // RK convex combination, then primitive recovery from the freshly
    // stored conservatives.
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          const Cons next = coeffs.a * Physics::load_cons(u0, k, j, i) +
                            coeffs.b * Physics::load_cons(u, k, j, i) +
                            (coeffs.c * dt) * Physics::load_cons(du, k, j, i);
          Physics::store_cons(u, k, j, i, next);
        }
      }
    }
    for (int k = blk.begin(2); k < blk.end(2); ++k) {
      for (int j = blk.begin(1); j < blk.end(1); ++j) {
        for (int i = blk.begin(0); i < blk.end(0); ++i) {
          Physics::store_prim(
              w, k, j, i,
              Physics::to_prim(Physics::load_cons(u, k, j, i), opt.physics,
                               stats_));
        }
      }
    }
  }

  Solver& s_;
  std::vector<mesh::FieldArray> u0_;  // RK reference state per block
  std::vector<mesh::FieldArray> du_;  // flux-difference accumulator
  std::array<std::vector<double>, Physics::kNumPrim> q_, ql_, qr_;
  solver::C2PStats stats_;
};

}  // namespace rshc::testsupport
