// rshc_perfbench: runs one named benchmark workload and prints its metrics.
//
//   rshc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--workdir <dir>]
//
// With --trace 0 the run measures the end-to-end metrics with the span
// recorder off; with --trace 1 it records spans around every library call
// it makes and measures the per-layer metrics. Human-readable lines come
// first; the last stdout line is the JSON result. Exit status is 0 when
// the run completed (its correctness verdict is inside the JSON), 2 on a
// usage error and 1 when the workload threw.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_util.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rshc_perfbench: " << why
            << "\nusage: rshc_perfbench --workload <kh2d_serial|kh2d_pool4|"
               "kh2d_ranks2|serve_open_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        a.workdir = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::Result r;
  perfbench::Tracer& tracer = perfbench::Tracer::get();
  tracer.enable(args.trace);
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "kh2d_serial") {
      perfbench::run_kh2d_serial(args, r);
    } else if (args.workload == "kh2d_pool4") {
      perfbench::run_kh2d_pool4(args, r);
    } else if (args.workload == "kh2d_ranks2") {
      perfbench::run_kh2d_ranks2(args, r);
    } else if (args.workload == "serve_open_mix") {
      perfbench::run_serve_open_mix(args, r);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "rshc_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  tracer.enable(false);
  r.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  if (args.trace) {
    perfbench::note("span self time (ms), count / total / self:");
    for (const auto& [name, t] : tracer.totals()) {
      perfbench::note("  " + name + "  " + std::to_string(t.count) + " / " +
                      perfbench::fmt(t.total_ms) + " / " +
                      perfbench::fmt(t.self_ms));
    }
    const std::string path = args.workdir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".trace.json";
    tracer.write_trace(path);
    perfbench::note("trace written to " + path);
  }
  std::cout << r.json() << std::endl;
  return 0;
}
