#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Nearest-rank: the smallest sample with at least q of the series at or
  // below it.
  const auto n = static_cast<double>(v.size());
  auto k = static_cast<std::size_t>(std::max(0.0, std::ceil(q * n) - 1.0));
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = quantile(v, 0.5);
  s.p95 = quantile(v, 0.95);
  for (const double q : {0.99, 0.95, 0.9, 0.5}) {
    if ((1.0 - q) * static_cast<double>(s.n) >= 10.0 || q == 0.5) {
      s.tail_q = q;
      s.tail = quantile(v, q);
      break;
    }
  }
  s.p95_chunked = s.p95;
  const std::size_t k = s.n / kChunkSamples;
  if (k >= kMinChunks) {
    s.chunks = k;
    for (std::size_t c = 0; c < k; ++c) {
      const auto b = v.begin() + static_cast<std::ptrdiff_t>(c * s.n / k);
      const auto e = v.begin() + static_cast<std::ptrdiff_t>((c + 1) * s.n / k);
      s.chunk_p95.push_back(quantile(std::vector<double>(b, e), 0.95));
    }
    s.p95_chunked = median(s.chunk_p95);
  }
  return s;
}

std::string describe(const Summary& s) {
  std::string out = "n=" + std::to_string(s.n) + " p50=" + fmt(s.p50) +
                    " ms p95=" + fmt(s.p95_chunked) + " ms";
  if (s.chunk_p95.empty()) {
    out += " (whole run: fewer than ";
    out += std::to_string(kMinChunks);
    out += " chunks)";
  } else {
    out += " (median of " + std::to_string(s.chunks) + " chunk p95s:";
    for (const double c : s.chunk_p95) {
      out += ' ';
      out += fmt(c);
    }
    out += "; whole-run p95=" + fmt(s.p95) + " ms)";
  }
  out += ", highest percentile with >=10 samples beyond: p" +
         std::to_string(std::lround(100 * s.tail_q)) + "=" + fmt(s.tail) +
         " ms";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void note(const std::string& line) { std::cout << line << std::endl; }

std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", x);
  return buf;
}

// --- spans ---------------------------------------------------------------

namespace {
thread_local bool tl_tracing = true;

std::mutex& registration_mutex() {
  static std::mutex m;
  return m;
}
}  // namespace

void Tracer::set_thread_tracing(bool on) { tl_tracing = on; }

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::buffer() {
  thread_local Buffer* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(registration_mutex());
    buffers_.push_back(std::make_unique<Buffer>());
    mine = buffers_.back().get();
    mine->tid = static_cast<int>(buffers_.size());
  }
  return *mine;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(registration_mutex());
  std::map<std::string, Totals> out;
  for (const auto& b : buffers_) {
    std::vector<double> child_us(b->records.size(), 0.0);
    for (const Record& r : b->records) {
      if (r.parent >= 0) {
        child_us[static_cast<std::size_t>(r.parent)] += r.t1_us - r.t0_us;
      }
    }
    for (std::size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      Totals& t = out[r.name];
      const double dur = r.t1_us - r.t0_us;
      ++t.count;
      t.total_ms += dur * 1e-3;
      t.self_ms += (dur - child_us[i]) * 1e-3;
    }
  }
  return out;
}

void Tracer::write_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(registration_mutex());
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& b : buffers_) {
    for (std::size_t i = 0; i < b->records.size(); ++i) {
      const Record& r = b->records[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"id\": %zu, \"parent\": %d}}",
                    first ? "" : ",", r.name, b->tid, r.t0_us,
                    r.t1_us - r.t0_us, i, r.parent);
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
}

Span::Span(const char* name) {
  Tracer& t = Tracer::get();
  if (!t.enabled() || !tl_tracing) return;
  buf_ = &t.buffer();
  idx_ = static_cast<int>(buf_->records.size());
  const int parent = buf_->open.empty() ? -1 : buf_->open.back();
  buf_->records.push_back({name, parent, t.now_us(), 0.0});
  buf_->open.push_back(idx_);
}

Span::~Span() {
  if (buf_ == nullptr) return;
  buf_->records[static_cast<std::size_t>(idx_)].t1_us =
      Tracer::get().now_us();
  buf_->open.pop_back();
}

}  // namespace perfbench
