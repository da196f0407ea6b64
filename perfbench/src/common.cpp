#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "accel/eslam_accel.h"
#include "bench_util.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Reads one "<key>:  <n> kB" line of /proc/self/status, in MB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':')
      return std::atof(line.c_str() + len + 1) / 1024.0;
  return 0.0;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Host threads input generation may use (nproc, at least 1).
int generation_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

std::uint32_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint32_t v = static_cast<std::uint32_t>(z);
  return v == 0 ? 1u : v;
}

Generated generate(const eslam::SyntheticSequence& seq, int first, int count,
                   const ExtractorFactory& make_extractor) {
  Generated g;
  g.frames.resize(static_cast<std::size_t>(count));
  if (make_extractor) {
    g.features.resize(static_cast<std::size_t>(count));
    g.fe_model_ms.resize(static_cast<std::size_t>(count));
  }
  // One extractor per worker thread: extractors keep per-call scratch.
  const int threads = std::min(count, generation_threads());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      std::function<FeatureList(const FrameInput&, double*)> extract;
      if (make_extractor) extract = make_extractor();
      for (int i = t; i < count; i += threads) {
        const auto k = static_cast<std::size_t>(i);
        g.frames[k] = seq.frame(first + i);
        if (extract) g.features[k] = extract(g.frames[k], &g.fe_model_ms[k]);
      }
    });
  for (std::thread& th : pool) th.join();
  return g;
}

ExtractorFactory software_fe() {
  return [] {
    auto extractor = std::make_shared<eslam::OrbExtractor>(eslam::OrbConfig{});
    return [extractor](const FrameInput& f, double* model_ms) {
      *model_ms = 0.0;
      return extractor->extract(f.gray);
    };
  };
}

ExtractorFactory fabric_fe(int n_features) {
  return [n_features] {
    eslam::HwExtractorConfig hw;
    hw.n_features = n_features;
    auto fabric = std::make_shared<eslam::AcceleratedBackend>(hw);
    return [fabric](const FrameInput& f, double* model_ms) {
      FeatureList features = fabric->extract(f.gray);
      *model_ms = fabric->last_extract_time_ms();
      return features;
    };
  };
}

double peak_rss_mb() { return status_mb("VmHWM"); }

double start_memory_window() {
  // Freed blocks the allocator still holds would otherwise count in the
  // base and then be reused unseen by the peak.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return -1.0;
  const bool ok = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !ok) return -1.0;
  return status_mb("VmRSS");
}

double now_ms() { return eslam::obs::trace_now_us() / 1000.0; }

std::uint64_t digest(const std::vector<TrackResult>& results) {
  std::uint64_t h = kFnvOffset;
  for (const TrackResult& r : results) {
    h = fnv1a(r.pose_wc.rotation().data(), 9 * sizeof(double), h);
    h = fnv1a(r.pose_wc.translation().data(), 3 * sizeof(double), h);
    const int fields[] = {r.lost,      r.keyframe,  r.n_features,
                          r.n_matches, r.n_inliers, static_cast<int>(r.match_tier),
                          r.relocalized};
    h = fnv1a(fields, sizeof fields, h);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int SpanLog::track(const std::string& name) {
  if (pid_ < 0) pid_ = eslam::obs::register_process("perfbench");
  track_ids_.push_back(eslam::obs::register_track(pid_, name));
  return static_cast<int>(track_ids_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  // The engine's export ends its event array with "\n],\n\"displayTimeUnit\"";
  // the benchmark's spans are spliced in there so one file holds both.
  std::string doc = eslam::obs::chrome_trace_json();
  const std::string tail = "\n],\n\"displayTimeUnit\"";
  const std::size_t at = doc.rfind(tail);
  if (at == std::string::npos) return false;
  std::string events;
  for (const Span& s : spans_) {
    events += ",\n{\"pid\":" + std::to_string(pid_) +
              ",\"tid\":" + std::to_string(track_ids_[static_cast<std::size_t>(s.track)]) +
              ",\"ts\":" + json_number(s.start_ms * 1000.0) +
              ",\"dur\":" + json_number((s.end_ms - s.start_ms) * 1000.0) +
              ",\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"" + s.name +
              "\",\"args\":{\"session\":" + std::to_string(s.session) +
              ",\"frame\":" + std::to_string(s.frame) + "}}";
  }
  doc.insert(at, events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void Report::e2e(const std::string& name, double value) { e2e_[name] = value; }
void Report::layer(const std::string& name, double value) {
  layer_[name] = value;
}
void Report::info(const std::string& name, double value) {
  info_.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures_;
}

void Report::finish(const Args& args) {
  const std::map<std::string, double>& values = args.trace ? layer_ : e2e_;
  std::printf("\n%s (seed %llu, %d s, trace %d)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [k, v] : info_) std::printf("  %-34s %.10g\n", k.c_str(), v);
  for (const auto& [k, v] : values) std::printf("  %-34s %.6g\n", k.c_str(), v);

  eslam::bench::BenchJson json("perfbench_" + args.workload +
                               (args.trace ? "_trace" : ""));
  json.number("seed", static_cast<double>(args.seed));
  json.number("seconds", args.seconds);
  json.number("trace", args.trace ? 1 : 0);
  json.number("correct", correct() ? 1 : 0);
  json.number("attempted", static_cast<double>(attempted));
  json.number("failed", static_cast<double>(failed));
  for (const auto& [k, v] : info_) json.number(k, v);
  for (const auto& [k, v] : values) json.number(k, v);
  json.write();

  std::string line = "{\"correct\": " + std::string(correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"values\": {";
  bool first = true;
  for (const auto& [k, v] : values) {
    if (!first) line += ", ";
    first = false;
    // Metric names are plain identifiers: nothing to escape.
    line.append("\"").append(k).append("\": ").append(json_number(v));
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool matches_previous_run(const Args& args, const std::string& key,
                          const std::string& value) {
  // Keyed by this executable's bytes as well, so a rebuilt program (another
  // commit) starts a fresh record instead of comparing against the old one.
  static const std::string build = [] {
    std::ifstream exe("/proc/self/exe", std::ios::binary);
    std::ostringstream bytes;
    bytes << exe.rdbuf();
    const std::string s = bytes.str();
    return hex(fnv1a(s.data(), s.size(), kFnvOffset));
  }();
  const std::string path = "determinism-" + build + "-" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(args.seconds) + "-" + key + ".txt";
  std::ifstream in(path);
  std::string previous;
  if (in && std::getline(in, previous)) return previous == value;
  std::ofstream(path) << value << "\n";
  return true;
}

}  // namespace perfbench
