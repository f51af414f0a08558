// Tests for the simulated accelerator: staging semantics, stream ordering,
// events, and the transfer/launch cost model.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "rshc/common/error.hpp"
#include "rshc/common/timer.hpp"
#include "rshc/device/device.hpp"

namespace {

using namespace rshc::device;

/// A cost model with a printable name for the parameterized suite.
struct NamedModel {
  const char* name;
  AccelModel model;
};

/// The staging/ordering contract must not depend on the cost model: the
/// model only changes *when* stream work completes, never what it computes
/// or the order it runs in. Free link (no sleeps: the tightest races),
/// the PCIe-like defaults, and a slow link that delays every timed op.
const NamedModel kModels[] = {
    {"zero_cost", {0.0, std::numeric_limits<double>::infinity(), 0.0}},
    {"pcie_default", AccelModel{}},
    {"slow_link", {2e-3, 1e8, 1e-3}},
};

class DeviceContract : public ::testing::TestWithParam<NamedModel> {
 protected:
  [[nodiscard]] std::unique_ptr<Device> make() const {
    return make_device(GetParam().model);
  }
};

TEST_P(DeviceContract, UploadDownloadRoundTrip) {
  auto dev = make();
  std::vector<double> in(257);
  std::iota(in.begin(), in.end(), 0.0);
  Buffer buf = dev->alloc(in.size());
  dev->upload_async(in, buf);
  std::vector<double> out(in.size(), -1.0);
  dev->download_async(buf, out);
  dev->synchronize();
  EXPECT_EQ(in, out);
}

TEST_P(DeviceContract, LaunchSeesUploadedData) {
  auto dev = make();
  std::vector<double> in(100, 2.0);
  Buffer buf = dev->alloc(in.size());
  dev->upload_async(in, buf);
  auto view = buf.device_view();
  dev->launch([view] {
    for (double& x : view) x *= 3.0;
  }, /*work_items=*/view.size());
  std::vector<double> out(in.size());
  dev->download_async(buf, out);
  dev->synchronize();
  for (const double x : out) EXPECT_DOUBLE_EQ(x, 6.0);
}

TEST_P(DeviceContract, KernelsExecuteInSubmissionOrder) {
  auto dev = make();
  Buffer buf = dev->alloc(1);
  std::vector<double> one{1.0};
  dev->upload_async(one, buf);
  auto view = buf.device_view();
  // (x + 1) * 10 != x * 10 + 1: order matters. Timed launches, so each
  // kernel pays the modeled overhead before it runs.
  dev->launch([view] { view[0] += 1.0; }, /*work_items=*/1);
  dev->launch([view] { view[0] *= 10.0; }, /*work_items=*/1);
  std::vector<double> out(1);
  dev->download_async(buf, out);
  dev->synchronize();
  EXPECT_DOUBLE_EQ(out[0], 20.0);
}

TEST_P(DeviceContract, SizeMismatchThrows) {
  auto dev = make();
  Buffer buf = dev->alloc(4);
  std::vector<double> wrong(5);
  EXPECT_THROW(dev->upload_async(wrong, buf), rshc::Error);
  EXPECT_THROW(dev->download_async(buf, wrong), rshc::Error);
}

TEST_P(DeviceContract, EventsSignalCompletion) {
  auto dev = make();
  std::atomic<bool> ran{false};
  Event e = dev->launch([&ran] { ran.store(true); }, /*work_items=*/1);
  e.wait();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(e.query());
}

TEST(Device, AccelIsAsynchronous) {
  AccelModel model;
  model.launch_overhead_sec = 20e-3;
  auto dev = make_device(model);
  rshc::WallTimer t;
  Event e = dev->launch([] {}, /*work_items=*/1);
  const double submit_time = t.seconds();
  e.wait();
  const double total_time = t.seconds();
  // Submission returns immediately; completion pays the modeled overhead.
  EXPECT_LT(submit_time, 0.010);
  EXPECT_GE(total_time, 0.015);
}

TEST(Device, AccelTransferCostScalesWithBytes) {
  AccelModel model;
  model.transfer_latency_sec = 0.0;
  model.transfer_bandwidth_bytes_per_sec = 1e8;  // deliberately slow: 100MB/s
  auto dev = make_device(model);
  std::vector<double> big(1 << 17);  // 1 MiB -> ~10 ms at 100 MB/s
  Buffer buf = dev->alloc(big.size());
  rshc::WallTimer t;
  dev->upload_async(big, buf);
  dev->synchronize();
  EXPECT_GE(t.seconds(), 0.008);
}

TEST(Device, UntimedLaunchSkipsOverhead) {
  AccelModel model;
  model.launch_overhead_sec = 50e-3;
  auto dev = make_device(model);
  rshc::WallTimer t;
  for (int i = 0; i < 5; ++i) {
    dev->launch([] {}, /*work_items=*/0);
  }
  dev->synchronize();
  EXPECT_LT(t.seconds(), 0.050);
}

TEST(Device, BuffersTrackOwningDevice) {
  auto a = make_device();
  auto b = make_device();
  Buffer ba = a->alloc(1);
  Buffer bb = b->alloc(1);
  EXPECT_NE(ba.device_id(), bb.device_id());
  EXPECT_EQ(ba.size(), 1u);
}

// Two-stream H2D -> kernel -> D2H chain where every hop changes streams
// and is ordered *only* by event fences: upload on the transfer stream,
// kernel on the compute stream after wait_event, download back on the
// transfer stream after a second wait_event. With a modeled transfer
// latency the kernel would race ahead of the upload if the fence were
// broken, so a correct result here means the fences actually held.
TEST(Device, CrossStreamEventFencesOrderWork) {
  AccelModel model;
  model.transfer_latency_sec = 5e-3;
  model.transfer_bandwidth_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  model.launch_overhead_sec = 0.0;
  auto dev = make_device(model);
  const StreamId compute = kDefaultStream;
  const StreamId transfer = dev->create_stream();

  std::vector<double> in(64);
  std::iota(in.begin(), in.end(), 1.0);
  Buffer buf = dev->alloc(in.size());
  const Event up = dev->upload_async(in, buf, transfer);
  dev->wait_event(compute, up);
  auto view = buf.device_view();
  const Event k = dev->launch([view] {
    for (double& x : view) x *= 2.0;
  }, /*work_items=*/view.size(), compute);
  dev->wait_event(transfer, k);
  std::vector<double> out(in.size(), -1.0);
  dev->download_async(buf, out, transfer);
  dev->synchronize();
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 2.0 * in[i]) << "at " << i;
  }
}

TEST_P(DeviceContract, StreamsRunIndependentlyUntilFenced) {
  auto dev = make();
  const StreamId s1 = dev->create_stream();
  // A kernel parked on the default stream must not block a later kernel
  // submitted to another stream (no implicit cross-stream ordering).
  std::atomic<bool> release{false};
  std::atomic<bool> other_ran{false};
  dev->launch([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  Event e = dev->launch([&other_ran] { other_ran.store(true); }, 0, s1);
  e.wait();
  EXPECT_TRUE(other_ran.load());
  release.store(true);
  dev->synchronize();
}

// Seeded mis-fence: an upload with real modeled latency is enqueued on the
// transfer stream and a dependent kernel on the compute stream. Without
// wait_event the kernel observes the upload still incomplete (the bug this
// fence discipline exists to prevent); with the fence it always observes
// completion. Observation is via Event::query() — never a racing buffer
// read — so the test is TSan-clean.
TEST(Device, MissingCrossStreamFenceIsObservable) {
  AccelModel model;
  model.transfer_latency_sec = 20e-3;
  model.transfer_bandwidth_bytes_per_sec =
      std::numeric_limits<double>::infinity();
  model.launch_overhead_sec = 0.0;
  auto dev = make_device(model);
  const StreamId transfer = dev->create_stream();
  std::vector<double> in(8, 1.0);
  Buffer buf = dev->alloc(in.size());

  {
    // Mis-fenced: kernel launches immediately while the upload is still
    // paying its 20 ms modeled latency.
    const Event up = dev->upload_async(in, buf, transfer);
    std::atomic<bool> upload_done_at_kernel{true};
    dev->launch([up, &upload_done_at_kernel] {
      upload_done_at_kernel.store(up.query());
    }).wait();
    EXPECT_FALSE(upload_done_at_kernel.load())
        << "kernel should have raced ahead of the un-fenced upload";
    dev->synchronize();
  }
  {
    // Fenced: the same chain with wait_event is always ordered.
    const Event up = dev->upload_async(in, buf, transfer);
    dev->wait_event(kDefaultStream, up);
    std::atomic<bool> upload_done_at_kernel{false};
    dev->launch([up, &upload_done_at_kernel] {
      upload_done_at_kernel.store(up.query());
    }).wait();
    EXPECT_TRUE(upload_done_at_kernel.load());
    dev->synchronize();
  }
}

TEST_P(DeviceContract, WaitEventOnCompletedEventIsNoOp) {
  auto dev = make();
  const StreamId s1 = dev->create_stream();
  Event e = dev->launch([] {});
  e.wait();
  dev->wait_event(s1, e);  // already set: must not deadlock
  std::atomic<bool> ran{false};
  dev->launch([&ran] { ran.store(true); }, 0, s1).wait();
  EXPECT_TRUE(ran.load());
}

INSTANTIATE_TEST_SUITE_P(Models, DeviceContract, ::testing::ValuesIn(kModels),
                         [](const ::testing::TestParamInfo<NamedModel>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
