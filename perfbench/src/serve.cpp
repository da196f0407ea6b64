// localize-mixed-serve, open loop over server/SlamService: one mapping
// session with FE replayed on the device lane (the fabric cycle model's FE
// time as occupancy, FM live and unpadded) beside two localization
// sessions that run software FE on the ARM pool against a FrozenMap loaded
// through map_snapshot.
//
// One generator thread drives every session: each frame has a due time
// fixed by its session's camera rate, a refused try_feed is retried, and
// latency runs from the due time to the poll() that returned the result.
#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench_util.h"
#include "common.h"
#include "dataset/multi_sequence.h"
#include "eval/ate.h"
#include "server/slam_service.h"
#include "slam/map_snapshot.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace eslam;

// Camera rates, chosen on a 4-vCPU x86 host: the two-worker ARM pool is
// about 40-50% busy.  Busier settings let a host slowdown or a run of
// brute-force FM fallbacks grow a backlog that swamps the latency figures
// (README.md, "Design notes").
constexpr double kMapCameraHz = 16.0;
constexpr double kLocCameraHz = 2.5;
// Trajectory sampling density of every served stream (frames over the
// whole trajectory) and the distinct frames a mapping stream plays.  A
// mapping stream plays its frames forward and back (a camera sweeping the
// same scene), so generation stays bounded however long the run is.
constexpr int kStreamTrajectoryFrames = 600;
constexpr int kMappingDistinctFrames = 180;
// Fabric heap size of the mapping stream.  With the 1024-feature default
// a brute-force FM fallback (a quarter of frames on these streams) takes
// 80-300 ms on the host matcher and queues the device lane into
// multi-second backlogs; 200 features (the multi-session bench's value)
// keeps FM a minority of the device lane's time, as on the paper's fabric.
constexpr int kFabricFeatures = 200;
// Each localization stream starts at a seeded offset inside its own range
// of this many frames of the mapped stretch.
constexpr int kLocOffsetRange = 15;
// The scene and the mapping stream do not follow --seed: the texture and
// set seeds are those seed 1 derives, and the mapping stream starts at
// kMapOffset.  So the snapshot that setup loads is the same map on every
// seed, and the mapping session does the same work.  With a seeded scene
// setup_s spread 1.2 of its median over ten seeds, and the memory the
// engine adds moved with the mapping offset.  Starting at 4 or 10, where
// mapping falls back to brute-force FM most, that memory ranged 65-104 MB
// from run to run on the same inputs; starting at 19-31 it held at
// 55-60 MB (README.md, "Design notes").  The seed picks the start offset
// of each localization stream.
constexpr std::uint64_t kSceneSeed = 1;
constexpr int kMapOffset = 20;
constexpr int kSetupRepeats = 41;
// Generator poll interval: bounds how late a delivery is observed.
constexpr double kPollMs = 0.2;
// A pass that has not delivered everything this long after its last due
// time has lost frames.
constexpr double kDrainTimeoutMs = 60000.0;
// A frame misses its deadline when delivered later than this many camera
// periods after it was due.
constexpr double kDeadlinePeriods = 2.0;

struct Stream {
  std::string name;
  SessionKind kind = SessionKind::kMapping;
  double period_ms = 0;
  double phase_ms = 0;
  int n = 0;                               // frames fed per pass
  std::vector<FrameInput> frames;          // distinct frames
  std::vector<int> order;                  // frame index per feed
  std::vector<SE3> ground_truth;           // per distinct frame
  PinholeCamera camera = PinholeCamera::tum_freiburg1();
  std::vector<FeatureList> replay;         // mapping: FE in feed order (cycled)
  double fe_model_ms = 0;
  std::vector<TrackResult> reference;      // localization: solo results

  // Unique and increasing, so results identify their feed position.
  double timestamp(int k) const { return k * period_ms / 1000.0; }
  FrameInput input(int k) const {
    FrameInput f = frames[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])];
    f.timestamp = timestamp(k);
    return f;
  }
};

// Forward-and-back playback over `distinct` frames, `n` feeds long.
std::vector<int> ping_pong(int distinct, int n) {
  std::vector<int> order;
  const int cycle = 2 * distinct - 2;
  for (int k = 0; k < n; ++k) {
    const int p = k % cycle;
    order.push_back(p < distinct ? p : cycle - p);
  }
  return order;
}

Stream mapping_stream(const std::string& name, const SyntheticSequence& seq,
                      int offset, int n, double phase_ms) {
  Stream s;
  s.name = name;
  s.kind = SessionKind::kMapping;
  s.period_ms = 1000.0 / kMapCameraHz;
  s.phase_ms = phase_ms;
  s.n = n;
  s.camera = seq.camera();
  Generated g = generate(seq, offset, kMappingDistinctFrames,
                           fabric_fe(kFabricFeatures));
  s.frames = std::move(g.frames);
  s.order = ping_pong(kMappingDistinctFrames, n);
  for (int i = 0; i < kMappingDistinctFrames; ++i)
    s.ground_truth.push_back(seq.ground_truth(offset + i));
  for (const int idx : ping_pong(kMappingDistinctFrames, 2 * kMappingDistinctFrames - 2))
    s.replay.push_back(g.features[static_cast<std::size_t>(idx)]);
  s.fe_model_ms = mean(g.fe_model_ms);
  return s;
}

TrackerOptions mapping_options() {
  TrackerOptions options;
  options.backend.enabled = true;
  return options;
}

// A built service with its open sessions.  Handles are declared after the
// service so they close (drain) before it is destroyed.
struct Served {
  std::unique_ptr<SlamService> service;
  std::shared_ptr<const FrozenMap> frozen;
  std::vector<SessionHandle> handles;
  double setup_ms = 0;
  double snapshot_load_ms = 0;
  double frozen_build_ms = 0;
  std::vector<double> open_ms;
};

Served build(std::vector<Stream>& streams, const std::string& snapshot_path) {
  // Stage the device replay features outside the timed region: the
  // factory moves them into the emulated fabric.
  std::vector<std::vector<FeatureList>> staged;
  for (const Stream& s : streams) staged.push_back(s.replay);

  Served out;
  const double t0 = now_ms();
  out.service = std::make_unique<SlamService>(ServiceOptions{kArmWorkers});
  if (!snapshot_path.empty()) {
    MapSnapshot snapshot;
    std::string error;
    const double l0 = now_ms();
    if (!load_snapshot(snapshot_path, snapshot, &error)) {
      std::fprintf(stderr, "perfbench: cannot load snapshot: %s\n", error.c_str());
      std::exit(1);
    }
    const double l1 = now_ms();
    out.frozen = FrozenMap::from_snapshot(std::move(snapshot));
    out.snapshot_load_ms = l1 - l0;
    out.frozen_build_ms = now_ms() - l1;
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const Stream& s = streams[i];
    SessionConfig config;
    config.kind = s.kind;
    if (s.kind == SessionKind::kMapping) {
      config.camera = s.camera;
      config.tracker = mapping_options();
      const double fe_ms = s.fe_model_ms;
      config.backend_factory = [&staged, i, fe_ms] {
        return std::make_unique<bench::DeviceEmulationBackend>(
            std::move(staged[i]), MatcherOptions{}, fe_ms, 0.0);
      };
    } else {
      config.frozen_map = out.frozen;
      config.backend.platform = Platform::kSoftware;
    }
    const double o0 = now_ms();
    out.handles.push_back(out.service->open_session(config));
    out.open_ms.push_back(now_ms() - o0);
  }
  out.setup_ms = now_ms() - t0;
  return out;
}

// Everything one pass measured.
struct Pass {
  std::vector<std::vector<FrameRecord>> records;   // per stream, feed order
  std::vector<std::vector<TrackResult>> results;   // per stream, poll order
  std::vector<PipelineStats> stats;
  std::vector<std::size_t> map_points;
  std::vector<MapViewStats> views;
  double wall_ms = 0;
  double lag_max_ms = 0;
  long refusals = 0;
  bool drained = true;
};

Pass drive(std::vector<Stream>& streams, Served& served, SpanLog* log,
           const std::vector<int>& tracks) {
  const std::size_t n_streams = streams.size();
  Pass pass;
  pass.records.resize(n_streams);
  pass.results.resize(n_streams);
  std::size_t total = 0;
  for (std::size_t s = 0; s < n_streams; ++s) {
    pass.records[s].resize(static_cast<std::size_t>(streams[s].n));
    pass.results[s].reserve(static_cast<std::size_t>(streams[s].n));
    total += static_cast<std::size_t>(streams[s].n);
  }
  std::vector<int> next(n_streams, 0), delivered(n_streams, 0);
  std::vector<bool> attempted(n_streams, false);
  std::size_t done = 0;

  const double start = now_ms() + 20.0;
  double last_due = start;
  for (const Stream& s : streams)
    last_due = std::max(last_due, due_ms(start + s.phase_ms, s.period_ms,
                                         static_cast<std::size_t>(s.n - 1)));
  double last_delivery = start;
  for (;;) {
    const double now = now_ms();
    for (std::size_t s = 0; s < n_streams; ++s) {
      const Stream& st = streams[s];
      while (next[s] < st.n) {
        const int k = next[s];
        FrameRecord& rec = pass.records[s][static_cast<std::size_t>(k)];
        rec.due_ms = due_ms(start + st.phase_ms, st.period_ms,
                            static_cast<std::size_t>(k));
        if (rec.due_ms > now) break;
        if (!attempted[s]) {
          // How late the generator reached this frame: measured from the
          // later of its due time and the previous frame's accepted feed,
          // so back-pressure waits count as latency, not generator lag.
          const double ready =
              k == 0 ? rec.due_ms
                     : std::max(rec.due_ms,
                                pass.records[s][static_cast<std::size_t>(k - 1)].fed_ms);
          pass.lag_max_ms = std::max(pass.lag_max_ms, now - ready);
          attempted[s] = true;
        }
        if (!served.handles[s].try_feed(st.input(k))) {
          ++pass.refusals;
          break;
        }
        rec.fed_ms = now_ms();
        rec.deadline_ms = kDeadlinePeriods * st.period_ms;
        if (log) log->add("due_to_fed", tracks[s], static_cast<int>(s), k,
                          rec.due_ms, rec.fed_ms);
        attempted[s] = false;
        ++next[s];
      }
    }
    for (std::size_t s = 0; s < n_streams; ++s) {
      while (std::optional<TrackResult> r = served.handles[s].poll()) {
        const double t = now_ms();
        const int k = delivered[s]++;
        if (k < next[s]) {
          FrameRecord& rec = pass.records[s][static_cast<std::size_t>(k)];
          rec.delivered_ms = t;
          rec.delivered = true;
          rec.service_ms = r->times.total();
          rec.lost = r->lost;
          if (log) log->add("fed_to_delivered", tracks[s], static_cast<int>(s),
                            k, rec.fed_ms, t);
        }
        pass.results[s].push_back(std::move(*r));
        last_delivery = t;
        ++done;
      }
    }
    const double t = now_ms();
    if (done >= total) break;
    if (t > last_due + kDrainTimeoutMs) {
      pass.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kPollMs));
  }
  pass.wall_ms = last_delivery - start;

  for (std::size_t s = 0; s < n_streams; ++s) {
    SessionHandle& h = served.handles[s];
    if (pass.drained) {
      for (TrackResult& r : h.drain()) pass.results[s].push_back(std::move(r));
    }
    pass.stats.push_back(h.stats());
    if (streams[s].kind == SessionKind::kMapping && pass.drained) {
      pass.map_points.push_back(h.tracker().map().size());
      pass.views.push_back(h.tracker().map().view_stats());
    }
  }
  return pass;
}

bool delivered_in_order(const Stream& s, const std::vector<TrackResult>& results) {
  if (results.size() != static_cast<std::size_t>(s.n)) return false;
  for (int k = 0; k < s.n; ++k)
    if (results[static_cast<std::size_t>(k)].timestamp != s.timestamp(k))
      return false;
  return true;
}

void check_pass(const std::vector<Stream>& streams, const Pass& pass,
                const char* label, Report& report) {
  bool in_order = pass.drained;
  bool identical = true;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    in_order = in_order && delivered_in_order(streams[s], pass.results[s]);
    if (streams[s].kind == SessionKind::kLocalization)
      identical = identical && pass.results[s].size() == streams[s].reference.size() &&
                  digest(pass.results[s]) == digest(streams[s].reference);
  }
  report.check(in_order, std::string(label) +
                             ": every fed frame delivered exactly once, in feed order");
  bool has_loc = false;
  for (const Stream& s : streams) has_loc |= s.kind == SessionKind::kLocalization;
  if (has_loc)
    report.check(identical, std::string(label) +
                                ": localization streams bit-identical to solo "
                                "Localizer::process runs");
}

struct Populations {
  std::vector<double> map_lat, map_service, loc_lat, loc_service, map_wait,
      loc_wait;
  std::vector<FrameRecord> all;  // every fed frame, delivered or not
};

Populations populations(const std::vector<Stream>& streams, const Pass& pass) {
  Populations p;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const bool mapping = streams[s].kind == SessionKind::kMapping;
    for (const FrameRecord& f : pass.records[s]) {
      p.all.push_back(f);
      if (!f.delivered) continue;
      (mapping ? p.map_lat : p.loc_lat).push_back(latency_ms(f));
      (mapping ? p.map_service : p.loc_service).push_back(f.service_ms);
      (mapping ? p.map_wait : p.loc_wait).push_back(queue_wait_ms(f));
    }
  }
  return p;
}

void report_e2e(const std::vector<Stream>& streams, const Pass& pass,
                double setup_s, double peak_mb, Report& report) {
  const Populations p = populations(streams, pass);
  const double wall_s = pass.wall_ms / 1000.0;
  report.e2e("setup_s", setup_s);
  report.e2e("peak_rss_mb", peak_mb);
  report.e2e("map_fps", static_cast<double>(p.map_lat.size()) / wall_s);
  report.e2e("map_frame_p50_ms", median(p.map_service));
  report.e2e("map_lat_p50_ms", median(p.map_lat));
  // The slowest session kind the workload serves.
  const bool loc_slower = !p.loc_lat.empty() && median(p.loc_lat) > median(p.map_lat);
  const std::vector<double>& slow = loc_slower ? p.loc_lat : p.map_lat;
  report.e2e("lat_p50_ms", median(slow));
  report.e2e("lat_p90_ms", tail(slow));
  report.e2e("delivered_fps",
             static_cast<double>(p.map_lat.size() + p.loc_lat.size()) / wall_s);
  report.info("map_frame_p90_ms", tail(p.map_service));
  report.info("map_lat_p90_ms", tail(p.map_lat));
  report.info("map_lat_samples", static_cast<double>(p.map_lat.size()));
  report.info("loc_lat_samples", static_cast<double>(p.loc_lat.size()));
  report.info("loc_lat_p50_ms", median(p.loc_lat));
  report.info("loc_lat_p90_ms", tail(p.loc_lat));
  report.info("generator_lag_ms_max", pass.lag_max_ms);
  double fpga = 0, arm = 0;
  for (const PipelineStats& st : pass.stats) {
    fpga += st.fpga_busy_ms;
    arm += st.arm_busy_ms + st.backend_busy_ms;
  }
  report.info("device_busy_share", fpga / pass.wall_ms);
  report.info("arm_busy_share", arm / (pass.wall_ms * kArmWorkers));
  report.info("feed_refusals", static_cast<double>(pass.refusals));
}

void report_layers(const std::vector<Stream>& streams, const Served& served,
                   const Pass& pass, const Pass& untraced, Report& report) {
  const Populations p = populations(streams, pass);
  std::vector<double> map_fe, loc_fe, match, pose, update, update_key, localize;
  long map_frames = 0, loc_frames = 0, map_features = 0, loc_features = 0,
       matches = 0, inliers = 0, gated = 0, keyframes = 0, lost = 0;
  double ate_sum = 0;
  int mapping_sessions = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const Stream& st = streams[s];
    const std::vector<TrackResult>& results = pass.results[s];
    if (st.kind == SessionKind::kLocalization) {
      for (const TrackResult& r : results) {
        loc_fe.push_back(r.times.feature_extraction);
        localize.push_back(r.times.total());
        loc_features += r.n_features;
        ++loc_frames;
      }
      continue;
    }
    std::vector<SE3> estimated, truth;
    for (std::size_t k = 0; k < results.size(); ++k) {
      const TrackResult& r = results[k];
      map_fe.push_back(r.times.feature_extraction);
      match.push_back(r.times.feature_matching);
      pose.push_back(r.times.pose_estimation + r.times.pose_optimization);
      update.push_back(r.times.map_updating);
      if (r.keyframe) update_key.push_back(r.times.map_updating);
      map_features += r.n_features;
      matches += r.n_matches;
      inliers += r.n_inliers;
      gated += r.match_tier == MatchTier::kGated ? 1 : 0;
      keyframes += r.keyframe ? 1 : 0;
      lost += r.lost ? 1 : 0;
      ++map_frames;
      estimated.push_back(r.pose_wc);
      truth.push_back(st.ground_truth[static_cast<std::size_t>(st.order[k])]);
    }
    if (estimated.size() >= 3) {
      ate_sum += absolute_trajectory_error(estimated, truth).rmse * 100.0;
      ++mapping_sessions;
    }
  }
  const bool loc = loc_frames > 0;
  const std::vector<double>& fe = loc ? loc_fe : map_fe;
  const double features = static_cast<double>(loc ? loc_features : map_features);
  const double fe_frames = static_cast<double>(loc ? loc_frames : map_frames);
  report.layer("slam.map_frame_p90_ms", tail(p.map_service));
  report.layer("server.map_lat_p90_ms", tail(p.map_lat));
  report.layer("features.extract_ms_p50", median(fe));
  report.layer("features.extract_ms_p90", tail(fe));
  report.layer("features.keypoints_per_frame", fe_frames > 0 ? features / fe_frames : 0);
  const double mf = std::max<double>(1.0, static_cast<double>(map_frames));
  report.layer("slam.match_ms_p50", median(match));
  report.layer("slam.match_ms_p90", tail(match));
  report.layer("slam.match_gated_share", gated / mf);
  report.layer("slam.matches_per_frame", matches / mf);
  report.layer("slam.pose_ms_p50", median(pose));
  report.layer("slam.pose_ms_p90", tail(pose));
  report.layer("slam.inlier_ratio",
               matches > 0 ? static_cast<double>(inliers) / matches : 0.0);
  report.layer("slam.map_update_ms_p50", median(update));
  report.layer("slam.map_update_key_ms_p90", tail(update_key));
  report.layer("slam.keyframes", static_cast<double>(keyframes));
  double points = 0, publishes = 0, copied = 0;
  for (const std::size_t n : pass.map_points) points += static_cast<double>(n);
  for (const MapViewStats& v : pass.views) {
    publishes += static_cast<double>(v.publishes);
    copied += static_cast<double>(v.bytes_copied);
  }
  report.layer("slam.map_points", points);
  report.layer("slam.view_publishes", publishes);
  report.layer("slam.view_bytes_copied", copied);
  report.layer("slam.localize_ms_p50", median(localize));
  report.layer("slam.localize_ms_p90", tail(localize));
  report.layer("slam.snapshot_load_ms", served.snapshot_load_ms);
  report.layer("slam.frozen_map_build_ms", served.frozen_build_ms);
  report.layer("slam.ate_cm", mapping_sessions ? ate_sum / mapping_sessions : 0.0);
  report.layer("slam.lost_frac", lost / mf);

  double jobs = 0, rejected = 0, deltas = 0, ba_queue = 0, ba_jobs = 0,
         backend_busy = 0, arm_busy = 0, fpga_busy = 0, speculative = 0,
         replayed = 0;
  for (const PipelineStats& s : pass.stats) {
    jobs += s.backend_jobs;
    rejected += s.backend_jobs_rejected;
    deltas += s.backend_deltas_applied;
    ba_queue += s.backend_ba_queue_ms;
    ba_jobs += s.backend_ba_jobs;
    backend_busy += s.backend_busy_ms;
    arm_busy += s.arm_busy_ms;
    fpga_busy += s.fpga_busy_ms;
    speculative += s.speculative_matches;
    replayed += s.replayed_matches;
  }
  const double pool_ms = pass.wall_ms * kArmWorkers;
  report.layer("backend.jobs", jobs);
  report.layer("backend.jobs_rejected", rejected);
  report.layer("backend.deltas_applied", deltas);
  report.layer("backend.ba_queue_ms_mean", ba_jobs > 0 ? ba_queue / ba_jobs : 0.0);
  report.layer("backend.busy_share", backend_busy / pool_ms);
  report.layer("runtime.map_queue_wait_ms_p50", median(p.map_wait));
  report.layer("runtime.map_queue_wait_ms_p90", tail(p.map_wait));
  report.layer("runtime.loc_queue_wait_ms_p50", median(p.loc_wait));
  report.layer("runtime.loc_queue_wait_ms_p90", tail(p.loc_wait));
  report.layer("runtime.device_busy_share", fpga_busy / pass.wall_ms);
  report.layer("runtime.arm_busy_share", (arm_busy + backend_busy) / pool_ms);
  report.layer("runtime.replayed_match_share",
               speculative > 0 ? replayed / speculative : 0.0);
  report.layer("runtime.feed_refusals", static_cast<double>(pass.refusals));
  report.layer("runtime.deadline_miss_frac", deadline_miss_frac(p.all));
  report.layer("server.open_session_ms", median(served.open_ms));
  report.layer("server.loc_lat_p50_ms", median(p.loc_lat));
  report.layer("server.loc_lat_p90_ms", tail(p.loc_lat));
  report.layer("bench.generator_lag_ms_max", pass.lag_max_ms);

  // Tracing overhead: the traced pass against the untraced one, compared
  // on the median due -> delivered latency over every frame.
  const auto all_lat = [](const Populations& q) {
    std::vector<double> v = q.map_lat;
    v.insert(v.end(), q.loc_lat.begin(), q.loc_lat.end());
    return median(v);
  };
  const double base = all_lat(populations(streams, untraced));
  report.layer("bench.trace_overhead_pct",
               base > 0 ? 100.0 * (all_lat(p) / base - 1.0) : 0.0);
}

// Repeated setup, the untraced pass, the traced pass when asked, and every
// check and metric.
void run_served(const Args& args, std::vector<Stream>& streams,
                const std::string& snapshot_path, Report& report) {
  for (const Stream& s : streams) {
    report.info(s.name + ".camera_hz", 1000.0 / s.period_ms);
    report.info(s.name + ".frames", s.n);
  }
  report.info("arm_workers", kArmWorkers);

  // Setup is repeated and its median reported; the last repeat serves the
  // pass.  The memory window starts before it, so peak memory counts what
  // the service allocates, not the generated inputs the process holds.
  std::vector<double> setup_s;
  std::optional<Served> served;
  double rss_base_mb = -1;
  for (int i = 0; i < kSetupRepeats; ++i) {
    served.reset();
    if (i + 1 == kSetupRepeats) rss_base_mb = start_memory_window();
    served.emplace(build(streams, snapshot_path));
    setup_s.push_back(served->setup_ms / 1000.0);
  }
  Pass untraced = drive(streams, *served, nullptr, {});
  const double peak = peak_rss_mb() - rss_base_mb;
  served.reset();
  report.check(rss_base_mb >= 0, "peak memory window restarted before the last setup");
  report.info("rss_base_mb", rss_base_mb);

  long attempted = 0, delivered = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    attempted += streams[s].n;
    for (const FrameRecord& f : untraced.records[s])
      delivered += f.delivered ? 1 : 0;
  }
  report.attempted = attempted;
  report.failed = attempted - delivered;
  check_pass(streams, untraced, "untraced pass", report);
  for (std::size_t s = 0; s < streams.size(); ++s)
    if (streams[s].kind == SessionKind::kLocalization)
      report.check(matches_previous_run(args, streams[s].name,
                                        hex(digest(untraced.results[s]))),
                   streams[s].name + " digest identical to earlier runs of this seed");
  report.info("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()));
  report.info("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()));
  report_e2e(streams, untraced, median(setup_s), peak, report);
  if (!args.trace) return;

  SpanLog log;
  std::vector<int> tracks;
  for (const Stream& s : streams) tracks.push_back(log.track(s.name + " frames"));
  served.emplace(build(streams, snapshot_path));
  Pass traced = drive(streams, *served, &log, tracks);
  check_pass(streams, traced, "traced pass", report);
  report_layers(streams, *served, traced, untraced, report);
  if (!log.write("trace_" + args.workload + ".json"))
    std::fprintf(stderr, "warning: cannot write the trace file\n");
}

int frames_for(const Args& args, double hz) {
  return static_cast<int>(args.seconds * hz);
}

}  // namespace

void run_localize_mixed_serve(const Args& args, Report& report) {
  MultiSequenceOptions options;
  options.streams = 2;
  options.sequence.frames = kStreamTrajectoryFrames;
  options.sequence.room.texture_seed = derive(kSceneSeed, 4);
  options.set_seed = derive(kSceneSeed, 5);
  const MultiSequenceSet set(options);

  std::vector<Stream> streams;
  streams.push_back(mapping_stream("map0", set.stream(0), kMapOffset,
                                   frames_for(args, kMapCameraHz), 0.0));

  // The localization stream and the snapshot's source map: the first
  // `mapped` frames of stream 1, mapped in a sequential run (software FE
  // precomputed in parallel, replayed at zero cost).
  const int loc_n = frames_for(args, kLocCameraHz);
  const int mapped = loc_n + 2 * kLocOffsetRange;
  const SyntheticSequence& loc_seq = set.stream(1);
  Generated g = generate(loc_seq, 0, mapped, software_fe());
  const std::string snapshot_path = "snapshot.bin";
  {
    Tracker mapper(loc_seq.camera(),
                   std::make_unique<bench::DeviceEmulationBackend>(
                       g.features, MatcherOptions{}, 0.0, 0.0),
                   mapping_options());
    for (const FrameInput& f : g.frames) mapper.process(f);
    std::string error;
    if (!save_snapshot(snapshot_path,
                       capture_snapshot(mapper.map(), mapper.keyframe_graph(),
                                        loc_seq.camera()),
                       &error)) {
      std::fprintf(stderr, "perfbench: cannot save snapshot: %s\n", error.c_str());
      std::exit(1);
    }
    report.info("snapshot.points", static_cast<double>(mapper.map().size()));
  }
  for (int i = 0; i < 2; ++i) {
    Stream s;
    s.name = "loc" + std::to_string(i);
    s.kind = SessionKind::kLocalization;
    s.period_ms = 1000.0 / kLocCameraHz;
    s.phase_ms = (0.5 + i) * s.period_ms / 2.0;
    s.n = loc_n;
    s.camera = loc_seq.camera();
    const int start = i * kLocOffsetRange +
                      static_cast<int>(derive(args.seed, 22 + i) % kLocOffsetRange);
    s.frames.assign(g.frames.begin() + start, g.frames.begin() + start + loc_n);
    for (int k = 0; k < loc_n; ++k) s.order.push_back(k);
    report.info(s.name + ".offset", start);
    streams.push_back(std::move(s));
  }
  g = Generated{};  // the localization streams hold their own frames

  // Solo sequential references for the bit-identity check, one thread per
  // localization stream, over the same loaded map the sessions serve.
  {
    const std::shared_ptr<const FrozenMap> frozen = FrozenMap::load(snapshot_path);
    if (!frozen) {
      std::fprintf(stderr, "perfbench: cannot reload the snapshot\n");
      std::exit(1);
    }
    std::vector<std::thread> solo;
    for (Stream& s : streams) {
      if (s.kind != SessionKind::kLocalization) continue;
      solo.emplace_back([&s, &frozen] {
        BackendConfig backend;
        backend.platform = Platform::kSoftware;
        Localizer localizer(frozen, make_feature_backend(backend));
        for (int k = 0; k < s.n; ++k) s.reference.push_back(localizer.process(s.input(k)));
      });
    }
    for (std::thread& t : solo) t.join();
  }
  run_served(args, streams, snapshot_path, report);
}

}  // namespace perfbench
