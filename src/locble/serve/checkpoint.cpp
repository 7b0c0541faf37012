// Service checkpoint/restore — the wire-format (docs/WIRE.md) serialization
// of a quiescent TrackingService: merged stats, the flight-recorder ring and
// every client's queues, pose track and per-beacon sessions. The encoding is
// shard-count-free: clients are written in global id order with their shard
// assignment left implicit (shard_of recomputes it at restore against the
// restoring service's own shard count), so a checkpoint taken at 8 shards
// restores into 1 — or vice versa — and the continuation stays bit-identical
// either way.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "locble/serve/service.hpp"
#include "locble/wire/log.hpp"

namespace locble::serve {

namespace {

/// Version of the checkpoint *content* layout inside the wire envelope
/// (sections/fields below). Bumped independently of wire::kVersion.
constexpr std::uint32_t kCkptFormat = 1;

[[noreturn]] void fail(wire::WireStatus code, const std::string& what) {
    throw wire::WireError(code, "TrackingService checkpoint: " + what);
}

/// Element count for a following loop, bounded by the bytes actually
/// present: every element costs at least one byte, so a count beyond
/// remaining() can only come from corruption — latch failure instead of
/// letting a forged length drive a giant allocation loop.
std::size_t read_count(wire::ByteReader& r) {
    const std::uint64_t n = r.varint();
    if (n > r.remaining()) {
        r.bytes(r.remaining() + 1);  // latch failed()
        return 0;
    }
    return static_cast<std::size_t>(n);
}

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

void put_stats(wire::ByteWriter& w, const IngestStats& s) {
    w.varint(s.submitted);
    w.varint(s.accepted);
    w.varint(s.dropped);
    w.varint(s.rejected);
    w.varint(s.late);
    w.varint(s.epochs);
    w.varint(s.clients_created);
    w.varint(s.clients_evicted);
    w.varint(s.sessions_created);
    w.varint(s.sessions_evicted);
    w.varint(s.sessions_reset);
    w.varint(s.batches_flushed);
    w.varint(s.solves);
    w.varint(s.cluster_runs);
}

IngestStats get_stats(wire::ByteReader& r) {
    IngestStats s;
    s.submitted = r.varint();
    s.accepted = r.varint();
    s.dropped = r.varint();
    s.rejected = r.varint();
    s.late = r.varint();
    s.epochs = r.varint();
    s.clients_created = r.varint();
    s.clients_evicted = r.varint();
    s.sessions_created = r.varint();
    s.sessions_evicted = r.varint();
    s.sessions_reset = r.varint();
    s.batches_flushed = r.varint();
    s.solves = r.varint();
    s.cluster_runs = r.varint();
    return s;
}

/// Exact fieldwise u64 difference of two monotone stats views (now >= base).
IngestStats stats_minus(const IngestStats& now, const IngestStats& base) {
    IngestStats d;
    d.submitted = now.submitted - base.submitted;
    d.accepted = now.accepted - base.accepted;
    d.dropped = now.dropped - base.dropped;
    d.rejected = now.rejected - base.rejected;
    d.late = now.late - base.late;
    d.epochs = now.epochs - base.epochs;
    d.clients_created = now.clients_created - base.clients_created;
    d.clients_evicted = now.clients_evicted - base.clients_evicted;
    d.sessions_created = now.sessions_created - base.sessions_created;
    d.sessions_evicted = now.sessions_evicted - base.sessions_evicted;
    d.sessions_reset = now.sessions_reset - base.sessions_reset;
    d.batches_flushed = now.batches_flushed - base.batches_flushed;
    d.solves = now.solves - base.solves;
    d.cluster_runs = now.cluster_runs - base.cluster_runs;
    return d;
}

void put_sketch(wire::ByteWriter& w, const obs::QuantileSketch& s) {
    w.bool8(s.configured());
    if (!s.configured()) return;
    w.f64(s.upper_bound());
    w.varint(s.resolution());
    w.varint(s.count());
    w.f64(s.max());
    for (const std::uint64_t b : s.buckets()) w.varint(b);
}

void get_sketch(wire::ByteReader& r, obs::QuantileSketch& out) {
    if (!r.bool8()) {
        out = obs::QuantileSketch{};
        return;
    }
    const double upper = r.f64();
    const auto resolution = static_cast<std::uint32_t>(r.varint());
    const std::uint64_t count = r.varint();
    const double max = r.f64();
    if (resolution == 0 || !(upper > 0.0) ||
        static_cast<std::uint64_t>(resolution) + 1 > r.remaining()) {
        r.bytes(r.remaining() + 1);  // corrupted parameters: latch failure
        return;
    }
    std::vector<std::uint64_t> buckets(static_cast<std::size_t>(resolution) + 1);
    for (auto& b : buckets) b = r.varint();
    if (!r.ok()) return;
    out.restore(upper, resolution, std::move(buckets), count, max);
}

void put_fit(wire::ByteWriter& w, const core::LocationFit& f) {
    w.f64(f.location.x);
    w.f64(f.location.y);
    w.f64(f.exponent);
    w.f64(f.gamma_dbm);
    w.varint(f.segment_gammas.size());
    for (const double g : f.segment_gammas) w.f64(g);
    w.f64(f.residual_db);
    w.f64(f.confidence);
    w.bool8(f.ambiguous);
}

void get_fit(wire::ByteReader& r, core::LocationFit& f) {
    f.location.x = r.f64();
    f.location.y = r.f64();
    f.exponent = r.f64();
    f.gamma_dbm = r.f64();
    f.segment_gammas.resize(read_count(r));
    for (double& g : f.segment_gammas) g = r.f64();
    f.residual_db = r.f64();
    f.confidence = r.f64();
    f.ambiguous = r.bool8();
}

void put_sample(wire::ByteWriter& w, const core::FusedSample& s) {
    w.f64(s.t);
    w.f64(s.p);
    w.f64(s.q);
    w.f64(s.rssi);
    w.svarint(s.segment);
}

/// A decoded svarint as an int, or -1 — an invalid segment tag, refused by
/// get_session — when it does not fit: a forged 64-bit tag must not wrap
/// into range.
int get_int_tag(wire::ByteReader& r) {
    const std::int64_t v = r.svarint();
    return v >= 0 && v <= std::numeric_limits<int>::max() ? static_cast<int>(v) : -1;
}

void get_sample(wire::ByteReader& r, core::FusedSample& s) {
    s.t = r.f64();
    s.p = r.f64();
    s.q = r.f64();
    s.rssi = r.f64();
    s.segment = get_int_tag(r);
}

/// Full serve-layer event (not the wire::EventRecord mirror): the ingest
/// queues hold the POD verbatim, so the checkpoint writes all fields flat.
void put_event(wire::ByteWriter& w, const Event& e) {
    w.varint(e.client);
    w.f64(e.t);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.varint(e.beacon);
    w.f64(e.rssi_dbm);
    w.f64(e.position.x);
    w.f64(e.position.y);
}

bool get_event(wire::ByteReader& r, Event& e) {
    e.client = r.varint();
    e.t = r.f64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(EventKind::pose)) return false;
    e.kind = static_cast<EventKind>(kind);
    e.beacon = r.varint();
    e.rssi_dbm = r.f64();
    e.position.x = r.f64();
    e.position.y = r.f64();
    return r.ok();
}

void put_optional_class(wire::ByteWriter& w,
                        const std::optional<channel::PropagationClass>& c) {
    w.bool8(c.has_value());
    w.u8(c ? static_cast<std::uint8_t>(*c) : 0u);
}

bool get_optional_class(wire::ByteReader& r,
                        std::optional<channel::PropagationClass>& out) {
    const bool has = r.bool8();
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(channel::PropagationClass::nlos))
        return false;
    out.reset();
    if (has) out = static_cast<channel::PropagationClass>(v);
    return r.ok();
}

void put_session(wire::ByteWriter& w, const TrackingSession::Ckpt& ck) {
    // ANF chain state.
    w.varint(ck.anf.sections.size());
    for (const auto& [s1, s2] : ck.anf.sections) {
        w.f64(s1);
        w.f64(s2);
    }
    w.f64(ck.anf.akf.x);
    w.f64(ck.anf.akf.p);
    w.bool8(ck.anf.akf.initialized);
    w.f64(ck.anf.akf.bias);
    w.bool8(ck.anf.primed);
    w.f64(ck.anf.last_bf);
    // EnvAware regime tracker.
    w.bool8(ck.has_env);
    put_optional_class(w, ck.env.regime);
    put_optional_class(w, ck.env.pending);
    w.svarint(ck.env.pending_count);
    // Accumulated regression samples (the solver folds rebuild from these).
    w.varint(ck.samples.size());
    for (const auto& s : ck.samples) put_sample(w, s);
    // Warm-start grid (the one non-rebuildable piece of solver state).
    w.bool8(ck.warm_grid.valid);
    if (ck.warm_grid.valid) {
        w.f64(ck.warm_grid.n_min);
        w.f64(ck.warm_grid.n_max);
        w.f64(ck.warm_grid.step);
        w.varint(ck.warm_grid.points.size());
        for (const auto& p : ck.warm_grid.points) {
            w.bool8(p.has_fit);
            w.f64(p.loc.x);
            w.f64(p.loc.y);
            w.varint(p.gammas.size());
            for (const double g : p.gammas) w.f64(g);
        }
    }
    // Batch window and lifecycle scalars.
    w.bool8(ck.started);
    w.f64(ck.batch_end);
    w.f64(ck.last_event_t);
    w.varint(ck.batch_raw.size());
    for (const double v : ck.batch_raw) w.f64(v);
    w.varint(ck.batch_fused.size());
    for (const auto& s : ck.batch_fused) put_sample(w, s);
    w.svarint(ck.segment);
    w.svarint(ck.restarts);
    w.svarint(ck.resets);
    w.bool8(ck.has_regime);
    w.u8(static_cast<std::uint8_t>(ck.regime));
    w.f64(ck.band_min);
    w.f64(ck.band_max);
    w.bool8(ck.saw_blocked);
    w.f64(ck.prev_batch_mean);
    w.bool8(ck.have_prev_batch);
    w.bool8(ck.dirty);
    w.bool8(ck.epoch_changed);
    w.bool8(ck.snap_dirty);
    w.bool8(ck.dirty_listed);
    // Published estimate.
    w.bool8(ck.has_fit);
    if (ck.has_fit) put_fit(w, ck.fit);
    w.varint(ck.samples_used);
    w.varint(ck.samples_seen);
    // Diagnostics.
    w.svarint(ck.diag.solver_calls);
    w.svarint(ck.diag.solver_candidates);
    w.svarint(ck.diag.solver_failures);
    w.svarint(ck.diag.solver_multistarts);
    w.svarint(ck.diag.solver_warm_starts);
    w.svarint(ck.diag.convergence_failures);
    w.svarint(ck.diag.envaware_windows);
    w.varint(ck.diag.batch_samples.size());
    for (const std::size_t n : ck.diag.batch_samples) w.varint(n);
    // Clustering calibration.
    w.bool8(ck.has_cluster);
    if (ck.has_cluster) {
        w.f64(ck.cluster.calibrated.x);
        w.f64(ck.cluster.calibrated.y);
        w.f64(ck.cluster.combined_confidence);
        w.varint(ck.cluster.members.size());
        for (const std::uint64_t m : ck.cluster.members) w.varint(m);
        w.varint(ck.cluster.rejected);
    }
}

bool get_session(wire::ByteReader& r, TrackingSession::Ckpt& ck) {
    ck.anf.sections.resize(read_count(r));
    for (auto& [s1, s2] : ck.anf.sections) {
        s1 = r.f64();
        s2 = r.f64();
    }
    ck.anf.akf.x = r.f64();
    ck.anf.akf.p = r.f64();
    ck.anf.akf.initialized = r.bool8();
    ck.anf.akf.bias = r.f64();
    ck.anf.primed = r.bool8();
    ck.anf.last_bf = r.f64();
    ck.has_env = r.bool8();
    if (!get_optional_class(r, ck.env.regime)) return false;
    if (!get_optional_class(r, ck.env.pending)) return false;
    ck.env.pending_count = static_cast<int>(r.svarint());
    ck.samples.resize(read_count(r));
    for (auto& s : ck.samples) get_sample(r, s);
    ck.warm_grid.valid = r.bool8();
    if (ck.warm_grid.valid) {
        ck.warm_grid.n_min = r.f64();
        ck.warm_grid.n_max = r.f64();
        ck.warm_grid.step = r.f64();
        ck.warm_grid.points.resize(read_count(r));
        for (auto& p : ck.warm_grid.points) {
            p.has_fit = r.bool8();
            p.loc.x = r.f64();
            p.loc.y = r.f64();
            p.gammas.resize(read_count(r));
            for (double& g : p.gammas) g = r.f64();
        }
    }
    ck.started = r.bool8();
    ck.batch_end = r.f64();
    ck.last_event_t = r.f64();
    ck.batch_raw.resize(read_count(r));
    for (double& v : ck.batch_raw) v = r.f64();
    ck.batch_fused.resize(read_count(r));
    for (auto& s : ck.batch_fused) get_sample(r, s);
    ck.segment = get_int_tag(r);
    // Segment tags index the solver's per-segment Gammas: the session opens
    // segments 0..ck.segment in order, so any tag outside that range is
    // forged (and would index outside the solver's Gamma scratch).
    const auto tag_ok = [&](const core::FusedSample& s) {
        return s.segment >= 0 && s.segment <= ck.segment;
    };
    if (ck.segment < 0 || !std::all_of(ck.samples.begin(), ck.samples.end(), tag_ok) ||
        !std::all_of(ck.batch_fused.begin(), ck.batch_fused.end(), tag_ok))
        return false;
    ck.restarts = static_cast<int>(r.svarint());
    ck.resets = static_cast<int>(r.svarint());
    ck.has_regime = r.bool8();
    const std::uint8_t regime = r.u8();
    if (regime > static_cast<std::uint8_t>(channel::PropagationClass::nlos))
        return false;
    ck.regime = static_cast<channel::PropagationClass>(regime);
    ck.band_min = r.f64();
    ck.band_max = r.f64();
    ck.saw_blocked = r.bool8();
    ck.prev_batch_mean = r.f64();
    ck.have_prev_batch = r.bool8();
    ck.dirty = r.bool8();
    ck.epoch_changed = r.bool8();
    ck.snap_dirty = r.bool8();
    ck.dirty_listed = r.bool8();
    ck.has_fit = r.bool8();
    if (ck.has_fit) get_fit(r, ck.fit);
    ck.samples_used = r.varint();
    ck.samples_seen = r.varint();
    ck.diag.solver_calls = static_cast<int>(r.svarint());
    ck.diag.solver_candidates = static_cast<int>(r.svarint());
    ck.diag.solver_failures = static_cast<int>(r.svarint());
    ck.diag.solver_multistarts = static_cast<int>(r.svarint());
    ck.diag.solver_warm_starts = static_cast<int>(r.svarint());
    ck.diag.convergence_failures = static_cast<int>(r.svarint());
    ck.diag.envaware_windows = static_cast<int>(r.svarint());
    ck.diag.batch_samples.resize(read_count(r));
    for (std::size_t& n : ck.diag.batch_samples)
        n = static_cast<std::size_t>(r.varint());
    ck.has_cluster = r.bool8();
    if (ck.has_cluster) {
        ck.cluster.calibrated.x = r.f64();
        ck.cluster.calibrated.y = r.f64();
        ck.cluster.combined_confidence = r.f64();
        ck.cluster.members.resize(read_count(r));
        for (auto& m : ck.cluster.members) m = r.varint();
        ck.cluster.rejected = static_cast<std::size_t>(r.varint());
    }
    return r.ok();
}

}  // namespace

/// The befriended codec: the only code that reaches past the service's and
/// shard's public surfaces. Checkpoint/restore semantics — what is carried,
/// what is recomputed — are documented field-by-field in docs/WIRE.md.
struct CheckpointCodec {
    /// Digest of every *result-affecting* config field. shards/threads are
    /// excluded on purpose (results are invariant to them by the serve
    /// determinism contract), as is the solver kernel mode (bit-identical by
    /// the lane determinism contract). A trained EnvAware model is outside
    /// the digest: the caller must supply the same model, as documented on
    /// restore_checkpoint().
    static std::uint64_t config_digest(const TrackingService::Config& cfg) {
        wire::ByteWriter w;
        const Shard::Config& sh = cfg.shard;
        w.varint(sh.queue_capacity);
        w.u8(static_cast<std::uint8_t>(sh.overflow));
        w.f64(sh.idle_timeout_s);
        w.f64(sh.pose_history_s);
        w.bool8(sh.enable_clustering);
        w.varint(sh.clustering.dtw.segment_length);
        w.varint(sh.clustering.dtw.warp_window);
        w.f64(sh.clustering.dtw.threshold);
        w.varint(sh.clustering.smooth_half_window);
        w.varint(sh.clustering.diff_stride);
        w.f64(sh.clustering.max_candidate_distance_m);
        w.f64(sh.staleness_max_s);
        w.varint(sh.staleness_resolution);
        const TrackingSession::Config& se = sh.session;
        w.bool8(se.reset_on_env_change);
        w.bool8(se.solve_per_flush);
        w.varint(se.max_session_samples);
        const core::LocBle::Config& p = se.pipeline;
        w.svarint(p.anf.butterworth_order);
        w.f64(p.anf.cutoff_hz);
        w.f64(p.anf.sample_rate_hz);
        w.f64(p.anf.akf.q);
        w.f64(p.anf.akf.r_filtered);
        w.f64(p.anf.akf.r_raw);
        w.f64(p.anf.akf.bias_alpha);
        w.f64(p.anf.akf.adapt_gain);
        w.f64(p.solver.exponent_min);
        w.f64(p.solver.exponent_max);
        w.f64(p.solver.exponent_step);
        w.varint(p.solver.min_samples);
        w.f64(p.solver.min_lateral_spread);
        w.f64(p.solver.max_range_m);
        w.f64(p.solver.gamma_min_dbm);
        w.f64(p.solver.gamma_max_dbm);
        w.bool8(p.solver.use_wls);
        w.bool8(p.solver.use_gn_refinement);
        w.bool8(p.solver.use_model_averaging);
        w.u8(static_cast<std::uint8_t>(p.solver.search_mode));
        w.f64(p.batch_seconds);
        w.bool8(p.use_anf);
        w.bool8(p.use_envaware);
        w.bool8(p.gamma_prior_dbm.has_value());
        w.f64(p.gamma_prior_dbm.value_or(0.0));
        w.f64(p.gamma_prior_below_db);
        w.f64(p.gamma_prior_above_db);
        w.bool8(p.use_regime_bands);
        w.bool8(p.restart_on_change);
        // Status/recorder config shapes status_json(), which the restore
        // identity contract covers too.
        w.varint(cfg.flight_recorder_epochs);
        w.varint(cfg.status_window_epochs);
        w.f64(cfg.status.degraded_drop_rate);
        w.f64(cfg.status.overloaded_drop_rate);
        w.f64(cfg.status.degraded_staleness_p99_s);
        w.f64(cfg.status.overloaded_staleness_p99_s);
        w.f64(cfg.status.degraded_no_fix_rate);
        return fnv1a(w.data());
    }

    static std::string checkpoint(const TrackingService& svc) {
        wire::LogWriter log(wire::StreamKind::checkpoint);

        // Gather the fleet in global client order. The per-shard ingest maps
        // are unordered — collect, then sort (the determinism-lint idiom),
        // so the bytes carry no trace of hash order or shard count.
        struct ClientRef {
            ClientId id;
            const Shard* shard;
        };
        std::vector<ClientRef> fleet;
        for (const auto& sp : svc.shards_) {
            const Shard& s = *sp;
            for (const auto& [id, q] : s.ingest_) fleet.push_back({id, &s});
            for (const auto& [id, c] : s.clients_)
                if (s.ingest_.find(id) == s.ingest_.end())
                    fleet.push_back({id, &s});
        }
        std::sort(fleet.begin(), fleet.end(),
                  [](const ClientRef& a, const ClientRef& b) {
                      return a.id < b.id;
                  });

        {
            wire::ByteWriter meta;
            meta.u32(kCkptFormat);
            meta.u64(config_digest(svc.cfg_));
            meta.u64(svc.epoch_);
            meta.bool8(svc.has_horizon_);
            meta.f64(svc.horizon_);
            meta.f64(svc.epoch_horizon_);
            // Two merged stats views plus the recorder baseline. Restore
            // reconstructs per-shard state from these three alone — see
            // restore() below for the algebra.
            put_stats(meta, svc.merged_stats(/*barrier_view=*/true));
            put_stats(meta, svc.merged_stats(/*barrier_view=*/false));
            put_stats(meta, svc.last_record_stats_);
            meta.varint(fleet.size());
            log.section("meta", meta.data());
        }

        {
            wire::ByteWriter rec;
            const FlightRecorder& fr = svc.recorder_;
            rec.varint(fr.epochs_recorded());
            const std::vector<EpochRecord> records = fr.records();
            rec.varint(records.size());
            for (const EpochRecord& er : records) {
                rec.u64(er.epoch);
                rec.f64(er.horizon);
                put_stats(rec, er.delta);
                rec.varint(er.snapshot_rows);
                rec.varint(er.sessions_live);
                rec.varint(er.sessions_no_fit);
                put_sketch(rec, er.staleness_s);
                rec.f64(er.wall_epoch_us);
                rec.varint(er.shards.size());
                for (const ShardEpochRecord& sr : er.shards) {
                    rec.varint(sr.events_drained);
                    rec.varint(sr.clients_visited);
                    rec.varint(sr.sessions_live);
                    rec.varint(sr.sessions_no_fit);
                    rec.f64(sr.wall_us);
                }
            }
            log.section("recorder", rec.data());
        }

        for (const ClientRef& ref : fleet) {
            wire::ByteWriter c;
            c.varint(ref.id);
            const auto qit = ref.shard->ingest_.find(ref.id);
            c.bool8(qit != ref.shard->ingest_.end());
            if (qit != ref.shard->ingest_.end()) {
                const Shard::IngestQueue& q = qit->second;
                c.varint(q.buf.size());
                for (const Event& e : q.buf) put_event(c, e);
                c.f64(q.last_event_t);
                c.bool8(q.has_event_t);
            }
            const auto cit = ref.shard->clients_.find(ref.id);
            c.bool8(cit != ref.shard->clients_.end());
            if (cit != ref.shard->clients_.end()) {
                const Shard::ClientState& cs = cit->second;
                c.varint(cs.path.size());
                for (const auto& tp : cs.path) {
                    c.f64(tp.t);
                    c.f64(tp.position.x);
                    c.f64(tp.position.y);
                }
                c.varint(cs.path_cursor);
                c.bool8(cs.open_batches);
                c.varint(cs.sessions.size());
                for (const auto& [beacon, session] : cs.sessions) {
                    c.varint(beacon);
                    put_session(c, session.export_ckpt());
                }
            }
            log.section("client", c.data());
        }

        return log.finish();
    }

    static void restore(TrackingService& svc, std::string_view bytes) {
        if (svc.epoch_ != 0 || svc.has_horizon_ || svc.in_flight_ ||
            svc.merged_stats(/*barrier_view=*/false).submitted != 0)
            throw std::logic_error(
                "TrackingService::restore_checkpoint: service is not freshly "
                "constructed");

        wire::LogReader log(bytes);
        if (log.header_status() != wire::WireStatus::ok)
            fail(log.header_status(), "invalid header");
        if (log.kind() != wire::StreamKind::checkpoint)
            fail(wire::WireStatus::malformed, "stream is not a checkpoint");

        wire::LogRecord frame;

        // --- meta (must come first: the digest gates everything else) ---
        wire::WireStatus st = log.next(frame);
        if (st != wire::WireStatus::ok) fail(st, "reading meta section");
        if (frame.type != wire::FrameType::section ||
            frame.section_name != "meta")
            fail(wire::WireStatus::malformed, "first frame is not meta");
        wire::ByteReader meta(frame.section_body);
        if (meta.u32() != kCkptFormat)
            fail(wire::WireStatus::unknown_version,
                 "unknown checkpoint format");
        if (meta.u64() != config_digest(svc.cfg_))
            fail(wire::WireStatus::config_mismatch,
                 "checkpoint was taken under a different service config");
        const std::uint64_t epoch = meta.u64();
        const bool has_horizon = meta.bool8();
        const double horizon = meta.f64();
        const double epoch_horizon = meta.f64();
        const IngestStats barrier = get_stats(meta);
        const IngestStats live = get_stats(meta);
        const IngestStats last_record = get_stats(meta);
        const std::uint64_t client_count = meta.varint();
        if (!meta.ok()) fail(wire::WireStatus::malformed, "meta section");

        // --- recorder ---
        st = log.next(frame);
        if (st != wire::WireStatus::ok) fail(st, "reading recorder section");
        if (frame.type != wire::FrameType::section ||
            frame.section_name != "recorder")
            fail(wire::WireStatus::malformed, "second frame is not recorder");
        {
            wire::ByteReader rr(frame.section_body);
            const std::uint64_t epochs_recorded = rr.varint();
            std::vector<EpochRecord> records(read_count(rr));
            for (EpochRecord& er : records) {
                er.epoch = rr.u64();
                er.horizon = rr.f64();
                er.delta = get_stats(rr);
                er.snapshot_rows = rr.varint();
                er.sessions_live = rr.varint();
                er.sessions_no_fit = rr.varint();
                get_sketch(rr, er.staleness_s);
                er.wall_epoch_us = rr.f64();
                er.shards.resize(read_count(rr));
                for (ShardEpochRecord& sr : er.shards) {
                    sr.events_drained = rr.varint();
                    sr.clients_visited = rr.varint();
                    sr.sessions_live = rr.varint();
                    sr.sessions_no_fit = rr.varint();
                    sr.wall_us = rr.f64();
                }
            }
            if (!rr.ok()) fail(wire::WireStatus::malformed, "recorder section");
            svc.recorder_.restore(std::move(records), epochs_recorded);
        }

        // --- clients ---
        const auto nshards = static_cast<std::uint32_t>(svc.shards_.size());
        std::uint64_t restored = 0;
        for (;;) {
            st = log.next(frame);
            if (st == wire::WireStatus::end) break;
            if (st != wire::WireStatus::ok) fail(st, "reading client section");
            if (frame.type != wire::FrameType::section ||
                frame.section_name != "client")
                fail(wire::WireStatus::malformed, "unexpected section");
            wire::ByteReader cr(frame.section_body);
            const ClientId id = cr.varint();
            Shard& shard = *svc.shards_[shard_of(id, nshards)];
            if (cr.bool8()) {
                auto [qit, fresh] = shard.ingest_.try_emplace(id);
                if (!fresh)
                    fail(wire::WireStatus::malformed, "duplicate client");
                Shard::IngestQueue& q = qit->second;
                const std::size_t nbuf = read_count(cr);
                for (std::size_t i = 0; i < nbuf; ++i) {
                    Event e;
                    if (!get_event(cr, e))
                        fail(wire::WireStatus::malformed, "client queue event");
                    q.buf.push_back(e);
                }
                q.last_event_t = cr.f64();
                q.has_event_t = cr.bool8();
            }
            if (cr.ok() && cr.bool8()) {
                auto [cit, fresh] = shard.clients_.try_emplace(id);
                if (!fresh)
                    fail(wire::WireStatus::malformed, "duplicate client");
                Shard::ClientState& cs = cit->second;
                cs.path.resize(read_count(cr));
                for (auto& tp : cs.path) {
                    tp.t = cr.f64();
                    tp.position.x = cr.f64();
                    tp.position.y = cr.f64();
                }
                cs.path_cursor = static_cast<std::size_t>(cr.varint());
                cs.open_batches = cr.bool8();
                const std::size_t nsessions = read_count(cr);
                const core::EnvAware* env =
                    svc.envaware_ ? &*svc.envaware_ : nullptr;
                for (std::size_t i = 0; i < nsessions; ++i) {
                    const BeaconId beacon = cr.varint();
                    TrackingSession::Ckpt ck;
                    if (!get_session(cr, ck))
                        fail(wire::WireStatus::malformed, "session state");
                    auto [sit, created] = cs.sessions.try_emplace(
                        beacon, svc.cfg_.shard.session, env,
                        &shard.epoch_stats_);
                    if (!created)
                        fail(wire::WireStatus::malformed, "duplicate session");
                    try {
                        sit->second.import_ckpt(ck);
                    } catch (const std::invalid_argument& ex) {
                        fail(wire::WireStatus::malformed, ex.what());
                    }
                }
                shard.live_sessions_ += nsessions;
            }
            if (!cr.ok() || !cr.at_end())
                fail(wire::WireStatus::malformed, "client section");
            ++restored;
        }
        if (restored != client_count)
            fail(wire::WireStatus::malformed,
                 "client count does not match meta");

        // Per-shard incremental-snapshot dirty lists, rebuilt in (client,
        // beacon) order from the serialized dirty_listed marks. The original
        // lists were in worker discovery order, but snapshot assembly sorts
        // its rows globally — the order here is unobservable.
        for (auto& sp : svc.shards_) {
            Shard& s = *sp;
            for (auto& [id, cs] : s.clients_)
                for (auto& [beacon, session] : cs.sessions)
                    if (session.dirty_listed()) s.dirty_.emplace_back(id, beacon);
        }

        // Stats reconstruction. merged barrier view must equal `barrier` and
        // the live view `live`; both are sums over (retired + per-shard)
        // views, so park the whole barrier history in retired_ingest_ and
        // the post-swap ingest delta (live - barrier, pure driver-side
        // counters) in shard 0's live ingest stats. Shard attribution of
        // stats is unobservable — every consumer sees merged sums — and the
        // next begin_epoch() folds the delta into its swap capture exactly
        // as the uninterrupted run would have.
        svc.retired_ingest_ = barrier;
        svc.shards_[0]->ingest_stats_ = stats_minus(live, barrier);
        svc.last_record_stats_ = last_record;
        svc.epoch_ = epoch;
        svc.has_horizon_ = has_horizon;
        svc.horizon_ = horizon;
        svc.epoch_horizon_ = epoch_horizon;
    }
};

std::string TrackingService::checkpoint() const {
    if (in_flight_)
        throw std::logic_error("TrackingService::checkpoint: epoch in flight");
    return CheckpointCodec::checkpoint(*this);
}

void TrackingService::restore_checkpoint(std::string_view bytes) {
    CheckpointCodec::restore(*this, bytes);
}

}  // namespace locble::serve
