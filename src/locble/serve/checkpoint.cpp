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
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
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

// One io(Ar&, T) per struct lists its fields once; run with a Writer it
// encodes, with a Reader it decodes (docs/WIRE.md). Field<Ar, T> is
// `const T&` for the writer and `T&` for the reader.

/// Encoding archive over a wire::ByteWriter.
class Writer {
public:
    static constexpr bool kReading = false;
    explicit Writer(wire::ByteWriter& w) : w_(w) {}

    void u64(std::uint64_t v) { w_.u64(v); }
    void varint(std::uint64_t v) { w_.varint(v); }
    void svarint(std::int64_t v) { w_.svarint(v); }
    void f64(double v) { w_.f64(v); }
    void bool8(bool v) { w_.bool8(v); }
    template <class E>
    void enum8(E v, E /*last*/) {
        w_.u8(static_cast<std::uint8_t>(v));
    }
    void tag(int v) { w_.svarint(v); }
    /// Element count, then `each` per element in order.
    template <class Seq, class F>
    void seq(const Seq& v, F each) {
        w_.varint(v.size());
        for (const auto& x : v) each(x);
    }

private:
    wire::ByteWriter& w_;
};

/// Decoding archive over a wire::ByteReader. Every failed read-side check
/// latches the reader's failure, so a caller checks ok() once per section.
class Reader {
public:
    static constexpr bool kReading = true;
    explicit Reader(wire::ByteReader& r) : r_(r) {}

    void u64(std::uint64_t& v) { v = r_.u64(); }
    template <class U>
    void varint(U& v) {
        v = static_cast<U>(r_.varint());
    }
    template <class I>
    void svarint(I& v) {
        v = static_cast<I>(r_.svarint());
    }
    void f64(double& v) { v = r_.f64(); }
    void bool8(bool& v) { v = r_.bool8(); }
    /// One-byte enum; a value past `last` is corruption.
    template <class E>
    void enum8(E& v, E last) {
        const std::uint8_t b = r_.u8();
        if (b > static_cast<std::uint8_t>(last)) invalidate();
        else v = static_cast<E>(b);
    }
    /// A segment tag as an int, or -1 — an invalid tag, refused by the
    /// session io — when it does not fit: a forged 64-bit tag must not
    /// wrap into range.
    void tag(int& v) {
        const std::int64_t t = r_.svarint();
        v = t >= 0 && t <= std::numeric_limits<int>::max() ? static_cast<int>(t) : -1;
    }
    template <class Seq, class F>
    void seq(Seq& v, F each) {
        v.resize(count());
        for (auto& x : v) each(x);
    }
    /// Element count bounded by the bytes actually present: every element
    /// costs at least one byte, so a count beyond remaining() can only come
    /// from corruption — latch failure instead of letting a forged length
    /// drive a giant allocation loop.
    std::size_t count() {
        const std::uint64_t n = r_.varint();
        if (n > r_.remaining()) {
            invalidate();
            return 0;
        }
        return static_cast<std::size_t>(n);
    }
    std::size_t remaining() const { return r_.remaining(); }
    void invalidate() { r_.bytes(r_.remaining() + 1); }
    bool ok() const { return r_.ok(); }

private:
    wire::ByteReader& r_;
};

template <class Ar, class T>
using Field = std::conditional_t<Ar::kReading, T&, const T&>;

template <class Ar, class Seq>
void io_f64s(Ar& a, Seq& v) {
    a.seq(v, [&](auto& x) { a.f64(x); });
}

template <class Ar, class Seq>
void io_varints(Ar& a, Seq& v) {
    a.seq(v, [&](auto& x) { a.varint(x); });
}

template <class Ar, class Seq>
void io_seq(Ar& a, Seq& v) {
    a.seq(v, [&](auto& x) { io(a, x); });
}

template <class Ar>
void io(Ar& a, Field<Ar, IngestStats> s) {
    a.varint(s.submitted);
    a.varint(s.accepted);
    a.varint(s.dropped);
    a.varint(s.rejected);
    a.varint(s.late);
    a.varint(s.epochs);
    a.varint(s.clients_created);
    a.varint(s.clients_evicted);
    a.varint(s.sessions_created);
    a.varint(s.sessions_evicted);
    a.varint(s.sessions_reset);
    a.varint(s.batches_flushed);
    a.varint(s.solves);
    a.varint(s.cluster_runs);
}

/// The sketch keeps its fields private, so io() goes through its
/// accessors and restore(); the bucket vector is sized from `resolution`
/// only after the parameter check.
template <class Ar>
void io(Ar& a, Field<Ar, obs::QuantileSketch> s) {
    bool configured = s.configured();
    a.bool8(configured);
    if (!configured) {
        if constexpr (Ar::kReading) s = obs::QuantileSketch{};
        return;
    }
    double upper = s.upper_bound();
    std::uint32_t resolution = s.resolution();
    std::uint64_t count = s.count();
    double max = s.max();
    a.f64(upper);
    a.varint(resolution);
    a.varint(count);
    a.f64(max);
    if constexpr (Ar::kReading) {
        if (resolution == 0 || !(upper > 0.0) ||
            static_cast<std::uint64_t>(resolution) + 1 > a.remaining()) {
            a.invalidate();
            return;
        }
        std::vector<std::uint64_t> buckets(static_cast<std::size_t>(resolution) + 1);
        for (auto& b : buckets) a.varint(b);
        if (a.ok()) s.restore(upper, resolution, std::move(buckets), count, max);
    } else {
        for (const std::uint64_t b : s.buckets()) a.varint(b);
    }
}

template <class Ar>
void io(Ar& a, Field<Ar, core::LocationFit> f) {
    a.f64(f.location.x);
    a.f64(f.location.y);
    a.f64(f.exponent);
    a.f64(f.gamma_dbm);
    io_f64s(a, f.segment_gammas);
    a.f64(f.residual_db);
    a.f64(f.confidence);
    a.bool8(f.ambiguous);
}

template <class Ar>
void io(Ar& a, Field<Ar, core::FusedSample> s) {
    a.f64(s.t);
    a.f64(s.p);
    a.f64(s.q);
    a.f64(s.rssi);
    a.tag(s.segment);
}

/// Full serve-layer event (not the wire::EventRecord mirror): the ingest
/// queues hold the POD verbatim, so the checkpoint writes all fields flat.
template <class Ar>
void io(Ar& a, Field<Ar, Event> e) {
    a.varint(e.client);
    a.f64(e.t);
    a.enum8(e.kind, EventKind::pose);
    a.varint(e.beacon);
    a.f64(e.rssi_dbm);
    a.f64(e.position.x);
    a.f64(e.position.y);
}

template <class Ar>
void io(Ar& a, Field<Ar, motion::TimedPosition> tp) {
    a.f64(tp.t);
    a.f64(tp.position.x);
    a.f64(tp.position.y);
}

template <class Ar>
void io(Ar& a, Field<Ar, std::optional<channel::PropagationClass>> c) {
    bool has = c.has_value();
    channel::PropagationClass v = c.value_or(channel::PropagationClass::los);
    a.bool8(has);
    a.enum8(v, channel::PropagationClass::nlos);
    if constexpr (Ar::kReading) {
        c.reset();
        if (has) c = v;
    }
}

/// Session fields in their format-1 order, which interleaves the tracker's
/// state with the session's own (`resets` sits between tracker fields).
template <class Ar>
void io(Ar& a, Field<Ar, TrackingSession::Ckpt> ck) {
    auto& anf = ck.anf;
    auto& tr = ck.tracker;
    auto& st = ck.tracker.state;
    auto& se = ck.session;
    // ANF chain state.
    a.seq(anf.sections, [&](auto& s) {
        a.f64(s.first);
        a.f64(s.second);
    });
    a.f64(anf.akf.x);
    a.f64(anf.akf.p);
    a.bool8(anf.akf.initialized);
    a.f64(anf.akf.bias);
    a.bool8(anf.primed);
    a.f64(anf.last_bf);
    // EnvAware regime tracker.
    a.bool8(tr.has_env);
    io(a, tr.env.regime);
    io(a, tr.env.pending);
    a.svarint(tr.env.pending_count);
    // Accumulated regression samples (the solver folds rebuild from these).
    io_seq(a, tr.samples);
    // Warm-start grid (the one non-rebuildable piece of solver state).
    auto& wg = tr.warm_grid;
    a.bool8(wg.valid);
    if (wg.valid) {
        a.f64(wg.n_min);
        a.f64(wg.n_max);
        a.f64(wg.step);
        a.seq(wg.points, [&](auto& p) {
            a.bool8(p.has_fit);
            a.f64(p.loc.x);
            a.f64(p.loc.y);
            io_f64s(a, p.gammas);
        });
    }
    // Batch window and lifecycle scalars.
    a.bool8(se.started);
    a.f64(se.batch_end);
    a.f64(se.last_event_t);
    io_f64s(a, se.batch_raw);
    io_seq(a, se.batch_fused);
    a.tag(st.segment);
    if constexpr (Ar::kReading) {
        // Segment tags index the solver's per-segment Gammas: the session
        // opens segments 0..segment in order, so any tag outside that range
        // is forged (and would index outside the solver's Gamma scratch).
        const auto tag_ok = [&](const core::FusedSample& s) {
            return s.segment >= 0 && s.segment <= st.segment;
        };
        if (st.segment < 0 || !std::all_of(tr.samples.begin(), tr.samples.end(), tag_ok) ||
            !std::all_of(se.batch_fused.begin(), se.batch_fused.end(), tag_ok))
            a.invalidate();
    }
    a.svarint(st.restarts);
    a.svarint(se.resets);
    io(a, st.regime);
    a.f64(st.band_min);
    a.f64(st.band_max);
    a.bool8(st.saw_blocked);
    a.f64(st.prev_batch_mean);
    a.bool8(st.have_prev_batch);
    a.bool8(se.dirty);
    a.bool8(se.epoch_changed);
    a.bool8(se.snap_dirty);
    a.bool8(se.dirty_listed);
    // Published estimate.
    a.bool8(st.has_fit);
    if (st.has_fit) io(a, st.fit);
    a.varint(st.samples_used);
    a.varint(se.samples_seen);
    // Diagnostics.
    auto& d = st.diag;
    a.svarint(d.solver_calls);
    a.svarint(d.solver_candidates);
    a.svarint(d.solver_failures);
    a.svarint(d.solver_multistarts);
    a.svarint(d.solver_warm_starts);
    a.svarint(d.convergence_failures);
    a.svarint(d.envaware_windows);
    io_varints(a, d.batch_samples);
    // Clustering calibration.
    a.bool8(se.has_cluster);
    if (se.has_cluster) {
        a.f64(se.cluster.calibrated.x);
        a.f64(se.cluster.calibrated.y);
        a.f64(se.cluster.combined_confidence);
        io_varints(a, se.cluster.members);
        a.varint(se.cluster.rejected);
    }
}

template <class Ar>
void io(Ar& a, Field<Ar, ShardEpochRecord> sr) {
    a.varint(sr.events_drained);
    a.varint(sr.clients_visited);
    a.varint(sr.sessions_live);
    a.varint(sr.sessions_no_fit);
    a.f64(sr.wall_us);
}

template <class Ar>
void io(Ar& a, Field<Ar, EpochRecord> er) {
    a.u64(er.epoch);
    a.f64(er.horizon);
    io(a, er.delta);
    a.varint(er.snapshot_rows);
    a.varint(er.sessions_live);
    a.varint(er.sessions_no_fit);
    io(a, er.staleness_s);
    a.f64(er.wall_epoch_us);
    io_seq(a, er.shards);
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
            Writer w(meta);
            meta.u32(kCkptFormat);
            meta.u64(config_digest(svc.cfg_));
            meta.u64(svc.epoch_);
            meta.bool8(svc.has_horizon_);
            meta.f64(svc.horizon_);
            meta.f64(svc.epoch_horizon_);
            // Two merged stats views plus the recorder baseline. Restore
            // reconstructs per-shard state from these three alone — see
            // restore() below for the algebra.
            io(w, svc.merged_stats(/*barrier_view=*/true));
            io(w, svc.merged_stats(/*barrier_view=*/false));
            io(w, svc.last_record_stats_);
            meta.varint(fleet.size());
            log.section("meta", meta.data());
        }

        {
            wire::ByteWriter rec;
            Writer w(rec);
            rec.varint(svc.recorder_.epochs_recorded());
            const std::vector<EpochRecord> records = svc.recorder_.records();
            io_seq(w, records);
            log.section("recorder", rec.data());
        }

        for (const ClientRef& ref : fleet) {
            wire::ByteWriter c;
            Writer w(c);
            c.varint(ref.id);
            const auto qit = ref.shard->ingest_.find(ref.id);
            c.bool8(qit != ref.shard->ingest_.end());
            if (qit != ref.shard->ingest_.end()) {
                const Shard::IngestQueue& q = qit->second;
                io_seq(w, q.buf);
                c.f64(q.last_event_t);
                c.bool8(q.has_event_t);
            }
            const auto cit = ref.shard->clients_.find(ref.id);
            c.bool8(cit != ref.shard->clients_.end());
            if (cit != ref.shard->clients_.end()) {
                const Shard::ClientState& cs = cit->second;
                io_seq(w, cs.path);
                c.varint(cs.path_cursor);
                c.bool8(cs.open_batches);
                w.seq(cs.sessions, [&](const auto& entry) {
                    c.varint(entry.first);
                    io(w, entry.second.export_ckpt());
                });
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
        Reader mr(meta);
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
        IngestStats barrier, live, last_record;
        io(mr, barrier);
        io(mr, live);
        io(mr, last_record);
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
            Reader r(rr);
            const std::uint64_t epochs_recorded = rr.varint();
            std::vector<EpochRecord> records;
            io_seq(r, records);
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
            Reader r(cr);
            const ClientId id = cr.varint();
            Shard& shard = *svc.shards_[shard_of(id, nshards)];
            if (cr.bool8()) {
                auto [qit, fresh] = shard.ingest_.try_emplace(id);
                if (!fresh)
                    fail(wire::WireStatus::malformed, "duplicate client");
                Shard::IngestQueue& q = qit->second;
                io_seq(r, q.buf);
                q.last_event_t = cr.f64();
                q.has_event_t = cr.bool8();
            }
            if (cr.ok() && cr.bool8()) {
                auto [cit, fresh] = shard.clients_.try_emplace(id);
                if (!fresh)
                    fail(wire::WireStatus::malformed, "duplicate client");
                Shard::ClientState& cs = cit->second;
                io_seq(r, cs.path);
                cs.path_cursor = static_cast<std::size_t>(cr.varint());
                cs.open_batches = cr.bool8();
                const std::size_t nsessions = r.count();
                const core::EnvAware* env =
                    svc.envaware_ ? &*svc.envaware_ : nullptr;
                for (std::size_t i = 0; i < nsessions; ++i) {
                    const BeaconId beacon = cr.varint();
                    TrackingSession::Ckpt ck;
                    io(r, ck);
                    if (!cr.ok())
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
