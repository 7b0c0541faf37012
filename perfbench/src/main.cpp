// The repository benchmark program (perfbench/NOTES.md has the rationale).
//
//   locble_perf --workload <fleet_replay|offline_fix|failover> --seed N
//               --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]
//
// Inputs are synthesized from the seed by the sim module and handed to the
// library only as inputs. With --trace 0 the run measures the end-to-end
// metrics; with --trace 1 it measures an untraced half, then a traced half
// with spans around each call into a library module and the obs registry
// on, and prints the per-layer metrics. Every run checks the library's
// outputs; a failed check exits 1. The last stdout line is the result JSON;
// the line before it stamps the build and machine the result was taken on.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "locble/core/pipeline.hpp"
#include "locble/dsp/anf.hpp"
#include "locble/motion/dead_reckoning.hpp"
#include "locble/obs/metrics.hpp"
#include "locble/serve/replay.hpp"
#include "locble/serve/service.hpp"
#include "locble/sim/harness.hpp"
#include "locble/sim/multi_client.hpp"
#include "locble/sim/scenarios.hpp"
#include "locble/sim/workload_log.hpp"
#include "locble/wire/log.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"

using namespace locble;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

// Fleet shape: on the order of a city block of phones, each walking an
// L-shape past the same 8-beacon deployment, staggered so walks overlap.
constexpr int kFleetClients = 256;
constexpr int kFleetBeacons = 8;
// Offline walks: 112 per Table 1 environment, 1008 in all, so one pass over
// them supports a p99 (at least 10 fixes beyond it).
constexpr int kWalksPerEnv = 112;
constexpr int kEnvs = 9;
// Set-up is timed this many times before the measured work and, in an
// untraced run, as many times again after it; setup_s is the median.
constexpr int kSetupRepeats = 2;
// Fewest epochs / cycles a run measures, so p90 has 10 samples beyond it.
constexpr std::size_t kMinSamples = 100;
// Failover throughput is the median over blocks of consecutive cycles, which
// a burst of interference on a shared machine moves less than a mean. A
// block holds 5 restores at each shard count. offline_fix reports the mean
// rate over the whole run instead: its fixes differ in cost by 10x, so a
// block's rate depends on which walks it holds.
constexpr std::size_t kCycleBlock = 10;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    std::string trace_out;
    std::string commit{"unknown"};
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "error: %s\nusage: locble_perf --workload fleet_replay|offline_fix|failover "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--commit SHA]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") o.workload = v;
            else if (a == "--seed") o.seed = std::stoull(v);
            else if (a == "--seconds") o.seconds = std::stod(v);
            else if (a == "--trace") o.trace = std::stoi(v) != 0;
            else if (a == "--trace-out") o.trace_out = v;
            else if (a == "--commit") o.commit = v;
            else usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload != "fleet_replay" && o.workload != "offline_fix" && o.workload != "failover")
        usage("unknown or missing --workload");
    if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
    return o;
}

/// One run's verdict and outputs. A failed check is recorded here and
/// reported on stderr; the run still finishes so every failure shows.
struct Run {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    std::map<std::string, double> info;

    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    void metric(const std::string& name, double value, const char* unit) {
        check(std::isfinite(value), "metric " + name + " is not finite");
        metrics.push_back({name, {value, unit}});
    }
};

unsigned fleet_shards() {
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// A service at the defaults except the shard and thread counts. The
/// defaults turn EnvAware on, so it gets the shared trained model.
std::unique_ptr<serve::TrackingService> make_service(unsigned shards) {
    serve::TrackingService::Config cfg;
    cfg.shards = shards;
    cfg.threads = shards;
    return std::make_unique<serve::TrackingService>(cfg, sim::shared_envaware());
}

sim::WorkloadLogConfig fleet_log_config(std::uint64_t seed) {
    sim::WorkloadLogConfig cfg;
    cfg.workload.clients = kFleetClients;
    cfg.workload.beacons = kFleetBeacons;
    cfg.seed = seed;
    return cfg;
}

/// A workload's set-up, timed. The constructor runs it kSetupRepeats times
/// and then resets the peak RSS, so peak_rss_mb covers the measured work and
/// not set-up. finish() runs it kSetupRepeats times more, after the measured
/// work, and returns the median seconds of all repeats: a shared host's speed
/// drifts over a run, and set-up timed at both ends of it drifts less than
/// set-up timed at the start only. Before each repeat, untimed, `release`
/// frees the previous repeat's result, so no more than one copy of the
/// inputs is ever alive.
class Setup {
public:
    Setup(Run& run, std::function<void()> release, std::function<void()> setup)
        : run_(run), release_(std::move(release)), setup_(std::move(setup)) {
        repeat();
        run_.info["rss_reset"] = perfbench::reset_peak_rss() ? 1 : 0;
    }

    double finish() {
        repeat();
        return perfbench::median(s_);
    }

private:
    void repeat() {
        for (int i = 0; i < kSetupRepeats; ++i) {
            release_();
            const auto t0 = Clock::now();
            setup_();
            s_.push_back(seconds_since(t0));
        }
        run_.info["setup_repeats"] = static_cast<double>(s_.size());
    }

    Run& run_;
    std::function<void()> release_;
    std::function<void()> setup_;
    std::vector<double> s_;
};

/// Localization error of a fit, by the rule of sim::measure_stationary: the
/// estimate is mapped from the observer frame (origin at the walk start,
/// +x along its initial heading) into site coordinates.
double fix_error(const Vec2& estimate_observer, const Vec2& truth_site, const Vec2& start,
                 double heading) {
    return Vec2::distance(sim::observer_to_site(estimate_observer, start, heading), truth_site);
}

/// Last row each (client, beacon) session reported: whether it had a fit,
/// and where. Evicted sessions keep the row they last reported.
using LastFits = std::map<std::pair<serve::ClientId, serve::BeaconId>, std::optional<Vec2>>;

/// Error of every session's last fit; counts the sessions without one.
std::vector<double> fleet_errors(const LastFits& fits, std::uint64_t& no_fit, Run& run) {
    // The deployment (beacon ring) does not depend on the fleet size or the
    // seed, so a one-client workload yields the truth cheaply.
    sim::MultiClientConfig one;
    one.clients = 1;
    one.beacons = kFleetBeacons;
    const sim::MultiClientWorkload deployment = sim::make_multi_client_workload(one, 1);
    const sim::Scenario sc = sim::scenario(one.scenario_index);
    std::vector<double> errors;
    for (const auto& [key, fit] : fits) {
        if (!fit) {
            ++no_fit;
            continue;
        }
        const double e = fix_error(*fit, deployment.beacon_truth.at(key.second),
                                   sc.observer_start, sc.observer_heading);
        run.check(std::isfinite(e), "non-finite fleet error");
        errors.push_back(e);
    }
    return errors;
}

/// Ratio of the largest to the mean of `v`; 0 when the mean is 0.
double max_over_mean(const std::vector<double>& v) {
    double sum = 0.0, mx = 0.0;
    for (double x : v) {
        sum += x;
        mx = std::max(mx, x);
    }
    return sum > 0.0 ? mx / (sum / static_cast<double>(v.size())) : 0.0;
}

// ---------------------------------------------------------------------------
// Replay of the fleet log through a TrackingService: the closed loop
// fleet_replay measures and failover warms up with.
// ---------------------------------------------------------------------------

struct Pass {
    double wall_s{0.0};
    std::uint64_t epochs{0};
    std::vector<double> epoch_ms;  ///< epoch mark read -> incremental snapshot returned
    std::vector<double> shard_wall_imbalance;
    std::vector<double> shard_events_imbalance;
    std::uint64_t snapshot_rows{0};
    std::uint64_t sessions_live_max{0};
    LastFits last_fits;
    serve::IngestStats stats;
    std::string final_canonical;
};

/// Observer called after each epoch's snapshot, with the epochs run so far.
using EpochHook = std::function<void(serve::TrackingService&, std::uint64_t,
                                     const serve::ServiceSnapshot&)>;

/// One driver thread reads each epoch's frames, submits the events, runs the
/// epoch at the mark and takes an incremental snapshot. The first
/// `skip_epochs` epochs of the log are read but not submitted: `svc` was
/// restored from a checkpoint taken after them.
Pass replay_pass(std::string_view log, serve::TrackingService& svc, std::uint64_t skip_epochs,
                 SpanRecorder& rec, std::uint64_t& op, const EpochHook& hook = {}) {
    Pass p;
    const auto t0 = Clock::now();
    wire::LogReader reader(log);
    if (reader.header_status() != wire::WireStatus::ok)
        throw wire::WireError(reader.header_status(), "fleet log header");
    wire::LogRecord r;
    auto next = [&] {
        const wire::WireStatus st = reader.next(r);
        if (st != wire::WireStatus::ok && st != wire::WireStatus::end)
            throw wire::WireError(st, "fleet log frame");
        return st == wire::WireStatus::ok;
    };
    for (std::uint64_t skipped = 0; skipped < skip_epochs;) {
        if (!next()) throw std::runtime_error("fleet log ends before the checkpoint epoch");
        if (r.type == wire::FrameType::epoch) ++skipped;
    }
    std::vector<serve::Event> batch;
    for (bool more = true; more; ++op) {
        const ScopedSpan root(rec, "fleet.epoch", op);
        for (;;) {
            {
                const ScopedSpan s(rec, "wire.decode", op);
                more = next();
            }
            if (!more) break;
            if (r.type == wire::FrameType::events) {
                const ScopedSpan s(rec, "serve.submit", op);
                batch.clear();
                for (const wire::EventRecord& e : r.events) batch.push_back(serve::from_wire(e));
                svc.submit(batch);
                continue;
            }
            if (r.type != wire::FrameType::epoch)
                throw wire::WireError(wire::WireStatus::malformed, "unexpected frame in event log");
            const auto mark = Clock::now();
            {
                const ScopedSpan s(rec, "serve.epoch", op);
                svc.run_epoch();
            }
            serve::ServiceSnapshot snap;
            {
                const ScopedSpan s(rec, "serve.snapshot", op);
                snap = svc.snapshot(serve::SnapshotMode::incremental);
            }
            p.epoch_ms.push_back(ms_between(mark, Clock::now()));
            ++p.epochs;
            p.snapshot_rows += snap.estimates.size();
            p.sessions_live_max = std::max<std::uint64_t>(p.sessions_live_max, snap.sessions_live);
            for (const serve::BeaconEstimate& row : snap.estimates)
                p.last_fits[{row.client, row.beacon}] =
                    row.has_fit ? std::optional<Vec2>(row.fit.location) : std::nullopt;
            if (const serve::EpochRecord* fr = svc.flight_recorder().latest()) {
                std::vector<double> wall, events;
                for (const serve::ShardEpochRecord& s : fr->shards) {
                    wall.push_back(s.wall_us);
                    events.push_back(static_cast<double>(s.events_drained));
                }
                if (max_over_mean(events) > 0.0) {
                    p.shard_wall_imbalance.push_back(max_over_mean(wall));
                    p.shard_events_imbalance.push_back(max_over_mean(events));
                }
            }
            if (hook) hook(svc, skip_epochs + p.epochs, snap);
            break;
        }
    }
    p.wall_s = seconds_since(t0);
    p.stats = svc.stats();
    p.final_canonical = serve::canonical_text(svc.snapshot(serve::SnapshotMode::full));
    return p;
}

// ---------------------------------------------------------------------------
// Per-layer metrics: one fixed list, printed on every workload; a layer the
// workload does not exercise reads 0.
// ---------------------------------------------------------------------------

struct Layers {
    std::map<std::string, std::pair<double, const char*>> m;

    Layers() {
        for (const char* n : {"wire.decode_us", "serve.submit_us", "serve.epoch_us",
                              "serve.snapshot_us", "core.locate_us", "motion.track_us",
                              "dsp.anf_us", "serve.checkpoint_us", "serve.restore_us"})
            m[n] = {0.0, "us"};
        for (const char* n : {"serve.events_accepted", "serve.events_dropped",
                              "serve.events_rejected", "serve.snapshot_rows",
                              "serve.sessions_created", "serve.sessions_evicted",
                              "serve.sessions_live_max"})
            m[n] = {0.0, "count"};
        for (const char* n : {"core.solver.solve_calls", "core.solver.exponent_candidates",
                              "core.solver.candidate_failures", "core.solver.multistart_runs",
                              "core.solver.refine_evals", "core.solver.warm_starts",
                              "core.solver.samples_folded", "core.envaware_windows"})
            m[n] = {0.0, "1/op"};
        m["serve.shard_wall_imbalance"] = {0.0, "ratio"};
        m["serve.shard_events_imbalance"] = {0.0, "ratio"};
        m["core.solver.useful_frac"] = {0.0, "frac"};
        m["core.solver.refine_evals_per_solve"] = {0.0, "ratio"};
        m["wire.checkpoint_bytes"] = {0.0, "B"};
        m["trace_overhead_frac"] = {0.0, "frac"};
    }

    void set(const std::string& name, double v) { m.at(name).first = v; }

    /// Median per-operation self time of each span name, as `<name>_us`.
    void span_times(const std::vector<perfbench::Span>& spans, const char* root,
                    const std::vector<const char*>& names) {
        const std::vector<std::int64_t> self = perfbench::self_times(spans);
        for (const char* n : names)
            set(std::string(n) + "_us",
                perfbench::median(perfbench::per_op_self_us(spans, self, root, n)));
    }

    /// Solver work counters from the obs registry, per operation.
    void solver_counters(double ops) {
        std::map<std::string, double> c;
        for (const obs::MetricSnapshot& s : obs::Registry::global().snapshot())
            c[s.name] = static_cast<double>(s.count);
        for (const char* n : {"solve_calls", "exponent_candidates", "candidate_failures",
                              "multistart_runs", "refine_evals", "warm_starts", "samples_folded"})
            set(std::string("core.solver.") + n, c["solver." + std::string(n)] / ops);
        const double cand = c["solver.exponent_candidates"];
        set("core.solver.useful_frac", cand > 0.0 ? 1.0 - c["solver.candidate_failures"] / cand : 0.0);
        const double solves = c["solver.solve_calls"];
        set("core.solver.refine_evals_per_solve", solves > 0.0 ? c["solver.refine_evals"] / solves : 0.0);
    }

    void emit(Run& run) const {
        for (const auto& [name, v] : m) run.metric(name, v.first, v.second);
    }
};

/// Turn the obs registry on, zeroed, for the traced half; off again after.
struct ObsWindow {
    ObsWindow() {
        obs::Registry::global().reset();
        obs::Registry::global().set_enabled(true);
    }
    ~ObsWindow() { obs::Registry::global().set_enabled(false); }
    ObsWindow(const ObsWindow&) = delete;
    ObsWindow& operator=(const ObsWindow&) = delete;
};

void write_trace(const Options& opt, const SpanRecorder& rec, Run& run) {
    if (opt.trace_out.empty()) return;
    run.check(perfbench::write_spans_jsonl(opt.trace_out, rec.spans(),
                                           perfbench::self_times(rec.spans())),
              "cannot write " + opt.trace_out);
}

/// Print the end-to-end metrics of an untraced run. `lat_ms` holds one
/// latency per operation; the tail is the highest percentile it supports.
/// `rss_mb` is the peak RSS after a fixed amount of work: the allocator's
/// footprint keeps creeping up with every further pass, so a peak taken at
/// the end of the run would grow with the machine's speed.
void emit_end_to_end(Run& run, double ops_per_sec, const std::vector<double>& lat_ms,
                     const std::vector<double>& errors, double ok_frac, double rss_mb,
                     double setup_s) {
    const double tail = perfbench::tail_quantile(lat_ms.size());
    run.info["samples"] = static_cast<double>(lat_ms.size());
    run.info["tail_quantile"] = tail;
    run.check(!errors.empty(), "no fit to measure the error of");
    run.metric("ops_per_sec", ops_per_sec, "1/s");
    run.metric("latency_p50_ms", perfbench::percentile(lat_ms, 0.5), "ms");
    run.metric("latency_p90_ms", perfbench::percentile(lat_ms, 0.9), "ms");
    run.metric("latency_tail_ms", perfbench::percentile(lat_ms, tail), "ms");
    run.metric("error_p50_m", errors.empty() ? 0.0 : perfbench::median(errors), "m");
    run.metric("ok_frac", ok_frac, "frac");
    run.metric("peak_rss_mb", rss_mb, "MiB");
    run.metric("setup_s", setup_s, "s");
}

// ---------------------------------------------------------------------------
// fleet_replay
// ---------------------------------------------------------------------------

void run_fleet_replay(const Options& opt, Run& run) {
    sim::WorkloadLog log;
    Setup setup(run, [&] { log = sim::WorkloadLog{}; },
                [&] { log = sim::make_workload_log(fleet_log_config(opt.seed)); });
    const unsigned shards = fleet_shards();
    run.info["shards"] = shards;
    run.info["log_events"] = static_cast<double>(log.events);

    std::optional<std::string> reference;
    auto pass = [&](SpanRecorder& rec, std::uint64_t& op) {
        const auto svc = make_service(shards);
        Pass p = replay_pass(log.bytes, *svc, 0, rec, op);
        run.check(p.stats.dropped == 0 && p.stats.rejected == 0,
                  "fleet_replay dropped or rejected events");
        run.check(p.stats.submitted == log.events, "fleet_replay lost events");
        if (!reference) reference = p.final_canonical;
        run.check(*reference == p.final_canonical,
                  "fleet_replay final snapshot differs between passes (traced vs untraced)");
        return p;
    };

    // Untraced measurement: whole passes until the time is up.
    SpanRecorder off(false);
    std::uint64_t op = 0;
    std::vector<Pass> passes;
    std::size_t epochs = 0;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const auto t0 = Clock::now();
    double rss_mb = 0.0;
    while (passes.empty() || seconds_since(t0) < budget || (!opt.trace && epochs < kMinSamples)) {
        passes.push_back(pass(off, op));
        epochs += passes.back().epochs;
        if (passes.size() == 1) rss_mb = perfbench::peak_rss_mb();
    }
    // Throughput of each pass; the run reports their median.
    std::vector<double> rates;
    double events = 0.0, wall = 0.0;
    for (const Pass& p : passes) {
        rates.push_back(static_cast<double>(p.stats.submitted) / p.wall_s);
        events += static_cast<double>(p.stats.submitted);
        wall += p.wall_s;
    }

    if (!opt.trace) {
        std::vector<double> lat;
        for (const Pass& p : passes) lat.insert(lat.end(), p.epoch_ms.begin(), p.epoch_ms.end());
        std::uint64_t no_fit = 0;
        const std::vector<double> errors = fleet_errors(passes.front().last_fits, no_fit, run);
        const serve::IngestStats& st = passes.front().stats;
        const double sessions = static_cast<double>(passes.front().last_fits.size());
        run.attempted = st.submitted + passes.front().last_fits.size();
        run.failed = st.dropped + st.rejected + no_fit;
        run.info["passes"] = static_cast<double>(passes.size());
        run.info["sessions"] = sessions;
        // A drop or reject already fails the run, so ok_frac counts fits.
        emit_end_to_end(run, perfbench::median(rates), lat, errors,
                        (sessions - static_cast<double>(no_fit)) / sessions, rss_mb,
                        setup.finish());
        return;
    }

    // Traced half: the same passes with spans and the obs registry on.
    SpanRecorder rec(true);
    std::vector<Pass> traced;
    {
        const ObsWindow window;
        const auto t1 = Clock::now();
        while (traced.empty() || seconds_since(t1) < budget) traced.push_back(pass(rec, op));
    }
    double tev = 0.0, twall = 0.0;
    std::vector<double> wall_imb, ev_imb;
    for (const Pass& p : traced) {
        tev += static_cast<double>(p.stats.submitted);
        twall += p.wall_s;
        wall_imb.insert(wall_imb.end(), p.shard_wall_imbalance.begin(), p.shard_wall_imbalance.end());
        ev_imb.insert(ev_imb.end(), p.shard_events_imbalance.begin(), p.shard_events_imbalance.end());
    }
    const Pass& p = traced.front();
    run.attempted = p.stats.submitted * traced.size();
    run.failed = (p.stats.dropped + p.stats.rejected) * traced.size();

    Layers L;
    L.span_times(rec.spans(), "fleet.epoch",
                 {"wire.decode", "serve.submit", "serve.epoch", "serve.snapshot"});
    L.set("serve.events_accepted", static_cast<double>(p.stats.accepted));
    L.set("serve.events_dropped", static_cast<double>(p.stats.dropped));
    L.set("serve.events_rejected", static_cast<double>(p.stats.rejected));
    L.set("serve.snapshot_rows", static_cast<double>(p.snapshot_rows));
    L.set("serve.sessions_created", static_cast<double>(p.stats.sessions_created));
    L.set("serve.sessions_evicted", static_cast<double>(p.stats.sessions_evicted));
    L.set("serve.sessions_live_max", static_cast<double>(p.sessions_live_max));
    L.set("serve.shard_wall_imbalance", wall_imb.empty() ? 0.0 : perfbench::median(wall_imb));
    L.set("serve.shard_events_imbalance", ev_imb.empty() ? 0.0 : perfbench::median(ev_imb));
    L.solver_counters(tev);
    L.set("trace_overhead_frac", (twall / tev) / (wall / events) - 1.0);
    L.emit(run);
    write_trace(opt, rec, run);
}

// ---------------------------------------------------------------------------
// offline_fix
// ---------------------------------------------------------------------------

struct Walk {
    TimeSeries rss;
    imu::ImuTrace imu;
    Vec2 truth;
    Vec2 start;
    double heading{0.0};
};

std::vector<Walk> capture_walks(std::uint64_t seed) {
    const sim::MeasurementConfig mcfg;
    const sim::CaptureRunner runner(mcfg.capture);
    std::vector<sim::Scenario> envs;
    std::vector<imu::Trajectory> paths;
    for (int e = 1; e <= kEnvs; ++e) {
        envs.push_back(sim::scenario(e));
        paths.push_back(sim::default_l_walk(envs.back(), mcfg.lshape));
    }
    std::vector<Walk> walks;
    // Interleave environments so any prefix of the walk list (a run cut by
    // its time budget) samples them evenly.
    for (int i = 0; i < kWalksPerEnv * kEnvs; ++i) {
        const std::size_t e = static_cast<std::size_t>(i % kEnvs);
        sim::BeaconPlacement target;
        target.position = envs[e].default_beacon;
        Rng rng = Rng::for_stream(seed, static_cast<std::uint64_t>(i));
        sim::WalkCapture cap = runner.run(envs[e].site, {target}, paths[e], rng);
        Walk w;
        w.rss = std::move(cap.rss[target.id]);
        w.imu = std::move(cap.observer_imu);
        w.truth = target.position;
        w.start = paths[e].pose_at(0.0).position;
        w.heading = paths[e].pose_at(0.0).heading;
        walks.push_back(std::move(w));
    }
    return walks;
}

/// The app path: the library defaults sim::measure_stationary uses, with
/// the Gamma prior read from the beacon's advertised 1 m power.
core::LocBle offline_pipeline() {
    core::LocBle::Config cfg = sim::MeasurementConfig{}.pipeline;
    cfg.gamma_prior_dbm = sim::BeaconPlacement{}.profile.measured_power_dbm;
    return core::LocBle(cfg, sim::shared_envaware());
}

void run_offline_fix(const Options& opt, Run& run) {
    std::vector<Walk> walks;
    Setup setup(run, [&] { walks = std::vector<Walk>(); },
                [&] { walks = capture_walks(opt.seed); });
    const core::LocBle pipeline = offline_pipeline();
    const motion::DeadReckoner reckoner(sim::MeasurementConfig{}.reckoner);
    run.info["walks"] = static_cast<double>(walks.size());

    std::vector<std::optional<double>> first_error(walks.size());
    std::vector<std::string> first_fit(walks.size());
    std::uint64_t op = 0;
    // One fix; returns its wall time in ms.
    auto fix = [&](std::size_t i, SpanRecorder& rec, core::LocateResult& out) {
        const auto t0 = Clock::now();
        const ScopedSpan root(rec, "offline.fix", op);
        motion::MotionEstimate m;
        {
            const ScopedSpan s(rec, "motion.track", op);
            m = reckoner.track(walks[i].imu);
        }
        {
            const ScopedSpan s(rec, "core.locate", op);
            out = pipeline.locate(walks[i].rss, m);
        }
        return ms_between(t0, Clock::now());
    };
    auto record = [&](std::size_t i, const core::LocateResult& r) {
        char buf[96] = "no fit";
        if (r.fit)
            std::snprintf(buf, sizeof buf, "%.17g %.17g", r.fit->location.x, r.fit->location.y);
        if (!first_fit[i].empty()) {
            run.check(first_fit[i] == buf, "offline_fix is not repeatable on walk " + std::to_string(i));
            return;
        }
        first_fit[i] = buf;
        if (!r.fit) return;
        const double e = fix_error(r.fit->location, walks[i].truth, walks[i].start, walks[i].heading);
        run.check(std::isfinite(e), "offline_fix produced a non-finite error");
        first_error[i] = e;
    };

    // Untraced: at least one pass over every walk, then on to the budget.
    SpanRecorder off(false);
    std::vector<double> lat;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    core::LocateResult r;
    double rss_mb = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t n = 0; n < walks.size() || seconds_since(t0) < budget; ++n) {
        const std::size_t i = n % walks.size();
        lat.push_back(fix(i, off, r));
        ++op;
        record(i, r);
        if (n + 1 == walks.size()) rss_mb = perfbench::peak_rss_mb();
    }
    double lat_sum = 0.0;
    for (double x : lat) lat_sum += x;

    if (!opt.trace) {
        std::vector<double> errors;
        for (const auto& e : first_error)
            if (e) errors.push_back(*e);
        run.attempted = walks.size();
        run.failed = walks.size() - errors.size();
        emit_end_to_end(run, static_cast<double>(lat.size()) / (lat_sum / 1e3), lat, errors,
                        static_cast<double>(errors.size()) / static_cast<double>(walks.size()),
                        rss_mb, setup.finish());
        return;
    }

    // Traced half: one pass over the walks with spans and counters on. The
    // ANF runs as its own operation (zero-phase, as locate() runs it) so its
    // cost shows without inflating the fix it sits beside.
    SpanRecorder rec(true);
    double traced_sum = 0.0;
    std::uint64_t envaware_windows = 0;
    {
        const ObsWindow window;
        const dsp::Anf anf(pipeline.config().anf);
        for (std::size_t i = 0; i < walks.size(); ++i) {
            traced_sum += fix(i, rec, r);
            ++op;
            record(i, r);
            envaware_windows += static_cast<std::uint64_t>(r.diagnostics.envaware_windows);
            const ScopedSpan s(rec, "dsp.anf", op++);
            const TimeSeries filtered = anf.process_offline(walks[i].rss);
            run.check(filtered.size() == walks[i].rss.size(), "ANF changed the sample count");
        }
    }
    const double n = static_cast<double>(walks.size());
    run.attempted = walks.size();
    run.failed = 0;
    for (const auto& e : first_error) run.failed += e ? 0 : 1;

    Layers L;
    L.span_times(rec.spans(), "offline.fix", {"motion.track", "core.locate"});
    L.span_times(rec.spans(), "dsp.anf", {"dsp.anf"});
    L.solver_counters(n);
    L.set("core.envaware_windows", static_cast<double>(envaware_windows) / n);
    L.set("trace_overhead_frac", (traced_sum / n) / (lat_sum / static_cast<double>(lat.size())) - 1.0);
    L.emit(run);
    write_trace(opt, rec, run);
}

// ---------------------------------------------------------------------------
// failover
// ---------------------------------------------------------------------------

struct Warm {
    std::string log;
    std::uint64_t busiest_epoch{0};
    std::uint64_t busiest_live{0};
    std::string checkpoint;       ///< service state after the busiest epoch
    std::string final_canonical;  ///< uninterrupted run's final full snapshot
};

/// Replay the fleet log once, keeping a checkpoint of the epoch with the
/// most live sessions.
Warm warm_up(std::uint64_t seed, unsigned shards) {
    Warm w;
    w.log = sim::make_workload_log(fleet_log_config(seed)).bytes;
    SpanRecorder off(false);
    std::uint64_t op = 0;
    const auto svc = make_service(shards);
    const Pass p = replay_pass(w.log, *svc, 0, off, op,
                               [&](serve::TrackingService& s, std::uint64_t epochs,
                                   const serve::ServiceSnapshot& snap) {
                                   if (snap.sessions_live <= w.busiest_live) return;
                                   w.busiest_live = snap.sessions_live;
                                   w.busiest_epoch = epochs;
                                   w.checkpoint = s.checkpoint();
                               });
    w.final_canonical = p.final_canonical;
    return w;
}

void run_failover(const Options& opt, Run& run) {
    const unsigned shards = fleet_shards();
    Warm warm;
    std::unique_ptr<serve::TrackingService> svc;
    const auto release = [&] {
        svc.reset();
        warm = Warm{};
    };
    Setup setup(run, release, [&] {
        warm = warm_up(opt.seed, shards);
        svc = make_service(shards);
        svc->restore_checkpoint(warm.checkpoint);
    });
    run.info["shards"] = shards;
    run.info["busiest_epoch"] = static_cast<double>(warm.busiest_epoch);
    run.info["sessions_live"] = static_cast<double>(warm.busiest_live);
    run.info["checkpoint_bytes"] = static_cast<double>(warm.checkpoint.size());

    std::uint64_t op = 0;
    std::uint64_t cycles = 0, identical = 0;
    // One cycle: checkpoint the warm service, restore into a fresh one whose
    // shard count alternates between 1 and the fleet's. Returns ms.
    auto cycle = [&](SpanRecorder& rec) {
        const auto fresh = make_service(cycles % 2 == 0 ? 1 : shards);
        const auto t0 = Clock::now();
        std::string bytes;
        {
            const ScopedSpan root(rec, "failover.cycle", op);
            {
                const ScopedSpan s(rec, "serve.checkpoint", op);
                bytes = svc->checkpoint();
            }
            const ScopedSpan s(rec, "serve.restore", op);
            fresh->restore_checkpoint(bytes);
        }
        const double ms = ms_between(t0, Clock::now());
        ++op;
        ++cycles;
        const bool same = fresh->checkpoint() == bytes;
        run.check(same, "failover: restored service does not re-checkpoint byte-identically");
        identical += same ? 1 : 0;
        return ms;
    };

    SpanRecorder off(false);
    std::vector<double> lat;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const auto t0 = Clock::now();
    double rss_mb = 0.0;
    while (seconds_since(t0) < budget || (!opt.trace && lat.size() < kMinSamples)) {
        lat.push_back(cycle(off));
        if (lat.size() == kMinSamples) rss_mb = perfbench::peak_rss_mb();
    }
    double lat_sum = 0.0;
    for (double x : lat) lat_sum += x;

    // A restored service must continue exactly like the uninterrupted run.
    const auto resumed = make_service(1);
    resumed->restore_checkpoint(warm.checkpoint);
    const Pass rest = replay_pass(warm.log, *resumed, warm.busiest_epoch, off, op);
    run.check(rest.final_canonical == warm.final_canonical,
              "failover: replay after restore differs from the uninterrupted run");

    if (!opt.trace) {
        std::uint64_t no_fit = 0;
        const std::vector<double> errors = fleet_errors(rest.last_fits, no_fit, run);
        run.attempted = cycles;
        run.failed = cycles - identical;
        emit_end_to_end(run, perfbench::median_block_rate(lat, kCycleBlock), lat, errors,
                        static_cast<double>(identical) / static_cast<double>(cycles), rss_mb,
                        setup.finish());
        return;
    }

    SpanRecorder rec(true);
    double traced_sum = 0.0;
    std::uint64_t traced = 0;
    {
        const ObsWindow window;
        const auto t1 = Clock::now();
        while (traced == 0 || seconds_since(t1) < budget) {
            traced_sum += cycle(rec);
            ++traced;
        }
    }
    run.attempted = cycles;
    run.failed = cycles - identical;
    Layers L;
    L.span_times(rec.spans(), "failover.cycle", {"serve.checkpoint", "serve.restore"});
    L.solver_counters(static_cast<double>(traced));
    L.set("wire.checkpoint_bytes", static_cast<double>(warm.checkpoint.size()));
    L.set("trace_overhead_frac", (traced_sum / static_cast<double>(traced)) /
                                     (lat_sum / static_cast<double>(lat.size())) - 1.0);
    L.emit(run);
    write_trace(opt, rec, run);
}

// ---------------------------------------------------------------------------

void print_stamp(const Options& opt, const Run& run) {
    std::printf("{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", \"lane_width\": %d, "
                "\"kernel_isa\": \"%s\", \"obs\": %d, \"commit\": \"%s\"",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, LOCBLE_LANE_WIDTH,
                PERFBENCH_KERNEL_ISA, LOCBLE_OBS, opt.commit.c_str());
    for (const auto& [k, v] : run.info) std::printf(", \"%s\": %.17g", k.c_str(), v);
    std::printf("}}\n");
}

void print_result(const Run& run) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                run.correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
    const char* sep = "";
    for (const auto& [name, vu] : run.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                    std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    Run run;
    try {
        // Train the shared EnvAware model before any timed region.
        sim::shared_envaware();
        if (opt.workload == "fleet_replay") run_fleet_replay(opt, run);
        else if (opt.workload == "offline_fix") run_offline_fix(opt, run);
        else run_failover(opt, run);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    run.check(run.attempted > 0, "no operation was attempted");
    print_stamp(opt, run);
    print_result(run);
    std::fflush(stdout);
    return run.correct ? 0 : 1;
}
