// desk-map-seq: one client, closed loop, one software-platform mapping
// Tracker over the fr1/desk trajectory with the backend and map lifecycle
// on, one process() call at a time.  Host FE dominates each frame here, so
// a features/image gain shows up in full; sequential execution makes the
// trajectory exact, so its digest must repeat run to run.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"
#include "eval/ate.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace eslam;

// Frames of the closed loop per second of run length.  A software frame
// costs 110-185 ms on a 4-core x86 host, so the loop fills most of the
// run: the host's speed drifts over seconds, and a longer loop averages
// more of that drift.
constexpr int kFramesPerSecond = 7;
// The fr1/desk trajectory is sampled at this many frames (or the run
// length, when longer), so inter-frame motion does not depend on
// --seconds; a shorter run plays its first frames.
constexpr int kTrajectoryFrames = 210;
// The desk inputs do not follow --seed: the scene's texture is the one
// seed 3 derives and the run always starts at frame 0, like a dataset
// sequence.  Each change of input moves the map's size, and with it
// peak_rss_mb: across seeded textures it ranged 32-50 MB, and across
// seeded start offsets in this scene 38-60 MB (README.md, "Design notes").
constexpr std::uint64_t kDeskSceneSeed = 3;
// Tracker constructions timed for setup_s (median reported).
constexpr int kSetupRepeats = 201;
// Stated tolerance for the share of process() time the stage spans leave
// uncovered.  Paired-frame host noise moved the share between -0.02 and
// +0.007 over the runs it was set from.
constexpr double kUnattributedTolerance = 0.04;

TrackerOptions desk_options() {
  TrackerOptions options;
  options.backend.enabled = true;  // lifecycle is on regardless
  return options;
}

std::unique_ptr<Tracker> make_tracker(const PinholeCamera& camera) {
  return std::make_unique<Tracker>(camera, std::make_unique<SoftwareBackend>(),
                                   desk_options());
}

// The traced composition: the stage API in the order process() uses, one
// benchmark span per call under a frame span.
struct TracedFrame {
  double extract_ms = 0, match_ms = 0, pose_ms = 0, update_ms = 0;
  double backend_ms = -1;  // < 0: no job was pending
  double frame_ms = 0, covered_ms = 0;
};

TracedFrame traced_process(Tracker& tracker, const FrameInput& input,
                           long index, SpanLog& log, int track,
                           std::vector<TrackResult>& out) {
  TracedFrame t;
  const double frame_start = now_ms();
  double start = frame_start;
  const auto span = [&](const char* name) {
    const double end = now_ms();
    log.add(name, track, 0, index, start, end);
    const double d = end - start;
    t.covered_ms += d;
    start = end;
    return d;
  };
  FrameState fs = tracker.begin_frame(input);
  span("begin_frame");
  tracker.extract(fs);
  t.extract_ms = span("extract");
  tracker.match(fs);
  t.match_ms = span("match");
  tracker.estimate_pose(fs);
  t.pose_ms = span("estimate_pose");
  tracker.optimize_pose(fs);
  t.pose_ms += span("optimize_pose");
  out.push_back(tracker.update_map(fs));
  t.update_ms = span("update_map");
  tracker.recycle_frame(std::move(fs));
  span("recycle_frame");
  const bool pending = tracker.backend_job_pending();
  span("backend_job_pending");
  if (pending) {
    tracker.run_backend_job();
    t.backend_ms = span("run_backend_job");
  }
  const double frame_end = now_ms();
  log.add("frame", track, 0, index, frame_start, frame_end);
  t.frame_ms = frame_end - frame_start;
  return t;
}

}  // namespace

void run_desk_map_seq(const Args& args, Report& report) {
  const int frames = kFramesPerSecond * args.seconds;
  SequenceOptions seq_options;
  seq_options.frames = std::max(kTrajectoryFrames, frames);
  seq_options.room.texture_seed = derive(kDeskSceneSeed, 1);
  const SyntheticSequence seq(SequenceId::kFr1Desk, seq_options);
  const std::vector<FrameInput> inputs = generate(seq, 0, frames).frames;
  report.info("frames", frames);

  // --- setup ---------------------------------------------------------------
  // Setup is repeated and its median reported; the last repeat runs the
  // loop.  The memory window starts before it, so peak memory counts what
  // the tracker allocates, not the generated inputs the process holds.
  std::vector<double> setup_s;
  std::unique_ptr<Tracker> tracker;
  double rss_base_mb = -1;
  for (int i = 0; i < kSetupRepeats; ++i) {
    tracker.reset();
    if (i + 1 == kSetupRepeats) rss_base_mb = start_memory_window();
    const double t0 = now_ms();
    tracker = make_tracker(seq.camera());
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }

  // --- closed loop ----------------------------------------------------------
  // Untraced: process() exactly as shipped.  Traced: a second tracker
  // driven through the stage API, interleaved frame by frame with the
  // untraced one (alternating which runs first), so the tracing overhead
  // is a paired comparison on identical inputs.
  std::unique_ptr<Tracker> traced;
  SpanLog log;
  int track = -1;
  if (args.trace) {
    traced = make_tracker(seq.camera());
    track = log.track("desk-map-seq stages");
  }
  std::vector<TrackResult> results, traced_results;
  std::vector<double> lat_ms, service_ms;
  std::vector<TracedFrame> stages;
  const auto run_untraced = [&](const FrameInput& f) {
    const double t0 = now_ms();
    results.push_back(tracker->process(f));
    lat_ms.push_back(now_ms() - t0);
    service_ms.push_back(results.back().times.total());
  };
  const double loop_start = now_ms();
  for (int i = 0; i < frames; ++i) {
    const FrameInput& f = inputs[static_cast<std::size_t>(i)];
    if (args.trace && i % 2 == 1)
      stages.push_back(traced_process(*traced, f, i, log, track, traced_results));
    run_untraced(f);
    if (args.trace && i % 2 == 0)
      stages.push_back(traced_process(*traced, f, i, log, track, traced_results));
  }
  const double loop_s = (now_ms() - loop_start) / 1000.0;
  const double peak = peak_rss_mb() - rss_base_mb;
  report.attempted = frames;
  report.failed = frames - static_cast<long>(results.size());

  // --- correctness -----------------------------------------------------------
  const std::string trajectory = hex(digest(results));
  std::printf("trajectory digest %s\n", trajectory.c_str());
  report.check(results.size() == static_cast<std::size_t>(frames),
               "every frame produced a result");
  report.check(rss_base_mb >= 0, "peak memory window restarted before the last setup");
  report.info("rss_base_mb", rss_base_mb);
  report.check(matches_previous_run(args, "trajectory", trajectory),
               "trajectory digest identical to earlier runs of this seed");
  if (args.trace)
    report.check(hex(digest(traced_results)) == trajectory,
                 "traced stage-API trajectory identical to process()");

  // --- end to end ------------------------------------------------------------
  report.e2e("setup_s", median(setup_s));
  report.e2e("peak_rss_mb", peak);
  report.e2e("map_fps", frames / loop_s);
  report.e2e("map_frame_p50_ms", median(service_ms));
  report.e2e("map_lat_p50_ms", median(lat_ms));
  report.e2e("lat_p50_ms", median(lat_ms));
  report.e2e("lat_p90_ms", tail(lat_ms));
  report.e2e("delivered_fps", frames / loop_s);

  std::vector<SE3> estimated;
  int lost = 0;
  for (const TrackResult& r : results) {
    estimated.push_back(r.pose_wc);
    lost += r.lost ? 1 : 0;
  }
  const AteResult ate = absolute_trajectory_error(
      estimated, std::span(seq.ground_truth()).first(estimated.size()));
  report.info("ate_cm", ate.rmse * 100.0);
  report.info("lost_frac", static_cast<double>(lost) / frames);
  report.info("tail_quantile", tail_quantile(lat_ms.size()));
  if (!args.trace) return;

  // --- per layer (traced run) -----------------------------------------------
  std::vector<double> extract, match, pose, update, update_key, backend;
  double frame_total = 0, covered = 0, backend_total = 0, untraced_total = 0;
  long features = 0, matches = 0, inliers = 0, gated = 0, keyframes = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const TracedFrame& t = stages[i];
    const TrackResult& r = traced_results[i];
    extract.push_back(t.extract_ms);
    match.push_back(t.match_ms);
    pose.push_back(t.pose_ms);
    update.push_back(t.update_ms);
    if (r.keyframe) update_key.push_back(t.update_ms);
    if (t.backend_ms >= 0) {
      backend.push_back(t.backend_ms);
      backend_total += t.backend_ms;
    }
    frame_total += t.frame_ms;
    covered += t.covered_ms;
    untraced_total += lat_ms[i];
    features += r.n_features;
    matches += r.n_matches;
    inliers += r.n_inliers;
    gated += r.match_tier == MatchTier::kGated ? 1 : 0;
    keyframes += r.keyframe ? 1 : 0;
  }
  const double n = static_cast<double>(stages.size());
  // Uncovered time is measured against the untraced process() call on the
  // same frame, whose tracker holds the same state (the digests match), so
  // work process() does outside the stage API composition shows here.
  const double unattributed = 1.0 - covered / untraced_total;
  report.check(unattributed <= kUnattributedTolerance,
               "stage spans cover the paired process() time within the stated tolerance");
  const backend::BackendStats bstats = traced->backend_stats();
  const MapViewStats views = traced->map().view_stats();
  report.layer("slam.map_frame_p90_ms", tail(service_ms));
  report.layer("server.map_lat_p90_ms", tail(lat_ms));
  report.layer("features.extract_ms_p50", median(extract));
  report.layer("features.extract_ms_p90", tail(extract));
  report.layer("features.keypoints_per_frame", features / n);
  report.layer("slam.match_ms_p50", median(match));
  report.layer("slam.match_ms_p90", tail(match));
  report.layer("slam.match_gated_share", gated / n);
  report.layer("slam.matches_per_frame", matches / n);
  report.layer("slam.pose_ms_p50", median(pose));
  report.layer("slam.pose_ms_p90", tail(pose));
  report.layer("slam.inlier_ratio",
               matches > 0 ? static_cast<double>(inliers) / matches : 0.0);
  report.layer("slam.map_update_ms_p50", median(update));
  report.layer("slam.map_update_key_ms_p90", tail(update_key));
  report.layer("slam.keyframes", static_cast<double>(keyframes));
  report.layer("slam.map_points", static_cast<double>(traced->map().size()));
  report.layer("slam.view_publishes", static_cast<double>(views.publishes));
  report.layer("slam.view_bytes_copied", static_cast<double>(views.bytes_copied));
  report.layer("slam.ate_cm", ate.rmse * 100.0);
  report.layer("slam.lost_frac", static_cast<double>(lost) / frames);
  report.layer("backend.inline_job_ms_p90", tail(backend));
  report.layer("backend.jobs", bstats.jobs_run);
  report.layer("backend.deltas_applied", bstats.deltas_applied);
  report.layer("backend.busy_share", backend_total / frame_total);
  report.layer("bench.unattributed_share", unattributed);
  report.layer("bench.trace_overhead_pct",
               100.0 * (frame_total / untraced_total - 1.0));
  report.info("keyframe_update_tail_quantile", tail_quantile(update_key.size()));
  report.info("backend_job_tail_quantile", tail_quantile(backend.size()));
  if (!log.write("trace_desk-map-seq.json"))
    std::fprintf(stderr, "warning: cannot write the trace file\n");
}

}  // namespace perfbench
