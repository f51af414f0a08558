#pragma once
// Device-resident array of doubles: a separate arena on the simulated
// accelerator that host code must reach through explicit upload/download
// calls (the Device enforces staging discipline).

#include <cstddef>
#include <span>

#include "rshc/common/aligned.hpp"

namespace rshc::device {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t n, int device_id)
      : storage_(n, 0.0), device_id_(device_id) {}

  [[nodiscard]] std::size_t size() const { return storage_.size(); }
  [[nodiscard]] int device_id() const { return device_id_; }

  /// View usable *on the owning device only* (inside launched kernels).
  [[nodiscard]] std::span<double> device_view() { return storage_; }
  [[nodiscard]] std::span<const double> device_view() const {
    return storage_;
  }

 private:
  rshc::aligned_vector<double> storage_;
  int device_id_ = -1;
};

}  // namespace rshc::device
