// Shared plumbing of the benchmark program: arguments, seeded input
// derivation, parallel input generation, memory probes, the benchmark's
// own span log, trajectory digests and the metric report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataset/sequence.h"
#include "slam/tracker.h"

namespace perfbench {

using eslam::FeatureList;
using eslam::FrameInput;
using eslam::TrackResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

// ARM pool width of the served workload: on a 4-core host the device
// lane and the load generator each keep a core.
inline constexpr int kArmWorkers = 2;

// Independent 32-bit value derived from (seed, salt), never 0 — texture
// seeds, MultiSequenceSet::set_seed and start offsets all come from here.
std::uint32_t derive(std::uint64_t seed, std::uint64_t salt);

// Renders frames [first, first + count) of `seq` on nproc threads; given
// `make_extractor`, each frame's features are extracted too by a
// per-thread extractor it builds (the FE the engine would run on that
// frame, precomputed outside every timed region).
struct Generated {
  std::vector<FrameInput> frames;
  std::vector<FeatureList> features;
  std::vector<double> fe_model_ms;  // per frame, when the extractor models it
};
using ExtractorFactory =
    std::function<std::function<FeatureList(const FrameInput&, double*)>()>;
Generated generate(const eslam::SyntheticSequence& seq, int first, int count,
                   const ExtractorFactory& make_extractor = {});

// Software ORB extractor at the engine's default configuration.
ExtractorFactory software_fe();
// The simulated fabric's extractor with an `n_features` heap; reports its
// cycle-model FE time.
ExtractorFactory fabric_fe(int n_features);

// Process memory (MB).  start_memory_window() hands free heap back to the
// system, restarts the kernel's high-water mark at the current resident
// size and returns that size, so peak_rss_mb() minus it is the most the
// process added since.  It returns -1 when the mark cannot be restarted.
double start_memory_window();
double peak_rss_mb();

double now_ms();  // steady clock, the same epoch as obs::trace_now_us()

// FNV-1a digest over every field of a trajectory that tracking decides
// (pose bits, lost/keyframe flags, counts, match tier).
std::uint64_t digest(const std::vector<TrackResult>& results);
std::string hex(std::uint64_t v);

// Benchmark-owned spans, kept in memory and written once at the end as
// Chrome trace JSON merged with the engine's own trace export.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int track;
    int session;
    long frame;
    double start_ms;
    double end_ms;
  };
  // Registers a named row under the benchmark's trace process.
  int track(const std::string& name);
  void add(const char* name, int track, int session, long frame,
           double start_ms, double end_ms) {
    spans_.push_back({name, track, session, frame, start_ms, end_ms});
  }
  bool write(const std::string& path) const;

 private:
  int pid_ = -1;
  std::vector<int> track_ids_;
  std::vector<Span> spans_;
};

// The values one run reports, by metric name.  BENCHMARK.json alone lists
// the metrics and their units: run.py attaches the units, rejects a name
// the contract does not list, requires every end-to-end metric and reports
// 0 for a per-layer metric the workload does not exercise.
class Report {
 public:
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  // Free-form run facts (seed, rates, counts) for the text summary and the
  // provenance file; not part of the metric line.
  void info(const std::string& name, double value);
  void check(bool ok, const std::string& what);

  long attempted = 0;
  long failed = 0;
  bool correct() const { return failures_ == 0; }

  // Prints the summary, writes BENCH_perfbench_<workload>.json (bench_util's
  // BenchJson, with its provenance stamp) and prints the values line last:
  // {"correct", "attempted", "failed", "values": {name: value}} with the
  // end-to-end values (untraced run) or the per-layer ones (traced run).
  void finish(const Args& args);

 private:
  std::map<std::string, double> e2e_, layer_;
  std::vector<std::pair<std::string, double>> info_;
  int failures_ = 0;
};

// Cross-run determinism: the first run of a (workload, seed) in a build
// records `value`; later runs must reproduce it.
bool matches_previous_run(const Args& args, const std::string& key,
                          const std::string& value);

void run_desk_map_seq(const Args& args, Report& report);
void run_localize_mixed_serve(const Args& args, Report& report);

}  // namespace perfbench
