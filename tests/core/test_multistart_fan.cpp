#include "locble/core/location_solver_gn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numbers>
#include <vector>

#include "locble/common/rng.hpp"
#include "locble/core/location_solver.hpp"

// The multistart fan (location_solver_gn.hpp) against a full-refine oracle
// kept here, in the test: refining all 8 bearings to the end and keeping
// the accepted one with the lowest rms, which is what the fan did before
// it learned to probe and finish. The fan may pick a different bearing
// than the oracle, but it must fail exactly when the oracle fails, and
// every bearing it accepts must be the oracle's refine of that bearing,
// bit for bit. Built into test_solver_kernels, so the lane-width sweep
// runs these cases at every LOCBLE_LANE_WIDTH.

namespace locble::core {
namespace {

using KernelMode = LocationSolver::Config::KernelMode;

/// A sample stream packed the way SolverWorkspace packs it: the AoS span,
/// its SoA mirror and the segment runs tiling both.
struct Packed {
    std::vector<FusedSample> samples;
    std::vector<double> p, q, rssi;
    std::vector<SegmentRun> runs;
    std::size_t k{1};

    explicit Packed(std::vector<FusedSample> s) : samples(std::move(s)) {
        int seg_hi = 0;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const FusedSample& f = samples[i];
            p.push_back(f.p);
            q.push_back(f.q);
            rssi.push_back(f.rssi);
            if (!runs.empty() && runs.back().seg == f.segment)
                ++runs.back().len;
            else
                runs.push_back({i, 1, f.segment});
            seg_hi = std::max(seg_hi, f.segment);
        }
        k = static_cast<std::size_t>(seg_hi) + 1;
    }

    gn::FitProblem problem(double exponent, KernelMode mode, double gamma_min = -90.0,
                           double gamma_max = -30.0) const {
        return {{samples.data(), p.data(), q.data(), rssi.data(), runs.data(), runs.size(),
                 samples.size(), mode},
                exponent, k, gamma_min, gamma_max};
    }

    double mean_rssi() const {
        double sum = 0.0;
        for (const FusedSample& f : samples) sum += f.rssi;
        return sum / static_cast<double>(samples.size());
    }
};

/// Caller-owned scratch for one problem size.
struct Scratch {
    std::vector<double> jtj, jtr, delta, gam_sum, bearing_gammas, resid, resid_spare,
        gam_best;
    std::vector<std::size_t> gam_cnt;

    explicit Scratch(const Packed& pk) {
        const std::size_t dim = 2 + pk.k;
        jtj.resize(dim * dim);
        jtr.resize(dim);
        delta.resize(dim);
        gam_sum.resize(pk.k);
        gam_cnt.resize(pk.k);
        bearing_gammas.resize(static_cast<std::size_t>(gn::kFanBearings) * pk.k);
        resid.resize(pk.samples.size());
        resid_spare.resize(pk.samples.size());
        gam_best.resize(pk.k);
    }

    gn::FanScratch fan() {
        return {jtj.data(),           jtr.data(),   delta.data(),
                gam_sum.data(),       gam_cnt.data(), bearing_gammas.data(),
                resid.data(),         resid_spare.data(), gam_best.data()};
    }
};

/// The production fan's start for one grid point: the level-implied range.
double start_range(const Packed& pk, double exponent, double gamma_seed) {
    return std::clamp(std::pow(10.0, (gamma_seed - pk.mean_rssi()) / (10.0 * exponent)),
                      0.5, 25.0);
}

locble::Vec2 bearing_start(int b, double d0) {
    return locble::unit_from_angle(2.0 * std::numbers::pi * b / gn::kFanBearings) * d0;
}

/// One bearing refined in a single call to the sweep cap, as a full fan
/// refines it, and whether it stays plausible from the end of the damped
/// phase through every later sweep (taken from a second, sweep-by-sweep
/// refine of the same start).
struct FullRefine {
    locble::Vec2 loc;
    std::vector<double> gammas;
    gn::RefineProgress progress;
    bool accepted{false};
    bool stays_in_range{true};
    double rms{0.0};
};

FullRefine full_refine(const gn::FitProblem& fp, Scratch& sc, int b, double d0,
                       double gamma_seed, double max_range_m, bool use_gn) {
    FullRefine out;
    out.loc = bearing_start(b, d0);
    out.gammas.resize(fp.k);
    gn::init_segment_gammas(sc.gam_sum.data(), sc.gam_cnt.data(), fp, out.loc,
                            gamma_seed, out.gammas.data());
    locble::Vec2 step_loc = out.loc;
    std::vector<double> step_gammas = out.gammas;
    gn::RefineProgress step;
    if (use_gn) {
        gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, out.loc,
                   out.gammas.data(), out.progress, gn::kMaxSweeps);
        gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, step_loc,
                   step_gammas.data(), step, gn::kDampedSweeps);
    }
    out.stays_in_range = gn::plausible(fp, step_loc, step_gammas.data(), max_range_m);
    while (use_gn && !step.done()) {
        gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, step_loc,
                   step_gammas.data(), step, step.sweeps + 1);
        out.stays_in_range = out.stays_in_range &&
                             gn::plausible(fp, step_loc, step_gammas.data(), max_range_m);
    }
    out.rms = gn::moments(fp, out.loc, out.gammas.data(), sc.resid.data())
                  .rms(fp.v.count);
    out.accepted = gn::plausible(fp, out.loc, out.gammas.data(), max_range_m) &&
                   out.rms < 1e300;
    return out;
}

/// A seeded walk past a beacon: an L (or a straight line when !lateral)
/// with `n` samples, a true exponent and noise level drawn from `rng`, and
/// the samples split into `k` environment segments with a few dB of
/// insertion loss each.
std::vector<FusedSample> seeded_walk(locble::Rng& rng, bool lateral, std::size_t k) {
    const double tx = rng.uniform(-12.0, 12.0), ty = rng.uniform(-12.0, 12.0);
    const double n_true = rng.uniform(1.6, 4.0);
    const double noise = rng.uniform(1.0, 6.0);
    const auto count = static_cast<std::size_t>(rng.uniform(30.0, 90.0));
    std::vector<FusedSample> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        const double u = static_cast<double>(i) / static_cast<double>(count - 1);
        const double ox = lateral ? std::min(u, 0.5) * 8.0 : u * 8.0;
        const double oy = lateral ? std::max(u - 0.5, 0.0) * 8.0 : 0.0;
        FusedSample& s = out[i];
        s.t = 0.1 * static_cast<double>(i);
        s.p = tx - ox;
        s.q = lateral ? ty - oy : 0.0;
        s.segment = static_cast<int>(i * k / count);
        const double l2 = std::max(s.p * s.p + s.q * s.q, 0.01);
        s.rssi = -59.0 - 5.0 * n_true * std::log10(l2) - 4.0 * s.segment +
                 rng.gaussian(0.0, noise);
    }
    return out;
}

void expect_same_state(const locble::Vec2& loc_a, const double* gam_a,
                       const locble::Vec2& loc_b, const double* gam_b, std::size_t k) {
    EXPECT_EQ(loc_a.x, loc_b.x);
    EXPECT_EQ(loc_a.y, loc_b.y);
    for (std::size_t s = 0; s < k; ++s) EXPECT_EQ(gam_a[s], gam_b[s]) << "gamma " << s;
}

TEST(MultistartFanTest, SplitRefineEqualsOneFullRefine) {
    locble::Rng rng(101);
    int stopped_early = 0, ran_to_cap = 0;
    for (int walk = 0; walk < 12; ++walk) {
        const Packed pk(seeded_walk(rng, walk % 3 != 0, 1 + static_cast<std::size_t>(walk % 3)));
        Scratch sc(pk);
        for (const KernelMode mode : {KernelMode::lanes, KernelMode::scalar_reference}) {
            for (const double n : {1.4, 2.2, 3.3, 5.1}) {
                const gn::FitProblem fp = pk.problem(n, mode);
                const double d0 = start_range(pk, n, -60.0);
                for (int b = 0; b < gn::kFanBearings; ++b) {
                    SCOPED_TRACE(::testing::Message() << "walk " << walk << " n " << n
                                                      << " bearing " << b);
                    const FullRefine full = full_refine(fp, sc, b, d0, -60.0, 25.0, true);

                    locble::Vec2 loc = bearing_start(b, d0);
                    std::vector<double> gammas(pk.k);
                    gn::init_segment_gammas(sc.gam_sum.data(), sc.gam_cnt.data(), fp, loc,
                                            -60.0, gammas.data());
                    gn::RefineProgress progress;
                    gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, loc,
                               gammas.data(), progress, gn::kDampedSweeps);
                    EXPECT_LE(progress.sweeps, gn::kDampedSweeps);
                    gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, loc,
                               gammas.data(), progress, gn::kMaxSweeps);

                    expect_same_state(loc, gammas.data(), full.loc, full.gammas.data(),
                                      pk.k);
                    EXPECT_EQ(progress.sweeps, full.progress.sweeps);
                    EXPECT_EQ(progress.stopped, full.progress.stopped);

                    // One sweep per call, as the fan resumes a bearing.
                    loc = bearing_start(b, d0);
                    gn::init_segment_gammas(sc.gam_sum.data(), sc.gam_cnt.data(), fp, loc,
                                            -60.0, gammas.data());
                    progress = {};
                    while (!progress.done())
                        gn::refine(sc.jtj.data(), sc.jtr.data(), sc.delta.data(), fp, loc,
                                   gammas.data(), progress, progress.sweeps + 1);
                    expect_same_state(loc, gammas.data(), full.loc, full.gammas.data(),
                                      pk.k);
                    EXPECT_EQ(progress.sweeps, full.progress.sweeps);
                    (full.progress.stopped ? stopped_early : ran_to_cap) += 1;
                }
            }
        }
    }
    // Both ways a refine ends are exercised.
    EXPECT_GT(stopped_early, 0);
    EXPECT_GT(ran_to_cap, 0);
}

/// Run the fan and the full-refine oracle on one grid point and check the
/// contract; returns whether the oracle accepted any bearing. `rescued`
/// counts grid points won by a set-aside bearing.
bool check_against_oracle(const Packed& pk, Scratch& sc, const gn::FitProblem& fp,
                          double gamma_seed, double max_range_m, bool use_gn,
                          int* rescued = nullptr) {
    const double d0 = start_range(pk, fp.exponent, gamma_seed);
    std::vector<FullRefine> oracle;
    bool oracle_ok = false;
    for (int b = 0; b < gn::kFanBearings; ++b) {
        oracle.push_back(full_refine(fp, sc, b, d0, gamma_seed, max_range_m, use_gn));
        oracle_ok = oracle_ok || oracle.back().accepted;
    }

    const gn::FanResult fan =
        gn::multistart_fan(fp, sc.fan(), d0, gamma_seed, max_range_m, use_gn);
    EXPECT_EQ(fan.ok, oracle_ok);
    // order is a permutation of the bearings.
    std::vector<int> sorted(fan.order.begin(), fan.order.end());
    std::sort(sorted.begin(), sorted.end());
    for (int b = 0; b < gn::kFanBearings; ++b) EXPECT_EQ(sorted[static_cast<std::size_t>(b)], b);

    // Replay the walk down the fan's ranking from the oracle's refines: a
    // bearing that stays plausible is finished and counts when accepted;
    // the walk ends at the kFanAccepts-th count. With none counted, the
    // set-aside bearings are finished in rank order and the first accepted
    // one wins.
    int counted = 0, expected_finished = 0, best = -1;
    for (const int b : fan.order) {
        if (counted >= gn::kFanAccepts) break;
        ++expected_finished;
        const FullRefine& o = oracle[static_cast<std::size_t>(b)];
        if (!o.stays_in_range || !o.accepted) continue;
        ++counted;
        if (best < 0 || o.rms < oracle[static_cast<std::size_t>(best)].rms) best = b;
    }
    for (int i = 0; i < expected_finished && best < 0; ++i) {
        const int b = fan.order[static_cast<std::size_t>(i)];
        const FullRefine& o = oracle[static_cast<std::size_t>(b)];
        if (!o.stays_in_range && o.accepted) {
            best = b;
            if (rescued) ++*rescued;
        }
    }
    EXPECT_EQ(fan.finished, expected_finished);
    EXPECT_EQ(fan.winner, best);
    if (fan.ok && best >= 0) {
        const FullRefine& o = oracle[static_cast<std::size_t>(best)];
        expect_same_state(fan.loc, sc.gam_best.data(), o.loc, o.gammas.data(), fp.k);
        EXPECT_EQ(fan.stats.rms_db, o.rms);
    }
    if (!use_gn) {
        // Nothing to refine: the fan's pick is the full fan's pick.
        int full_best = -1;
        for (int b = 0; b < gn::kFanBearings; ++b) {
            const FullRefine& o = oracle[static_cast<std::size_t>(b)];
            if (o.accepted &&
                (full_best < 0 || o.rms < oracle[static_cast<std::size_t>(full_best)].rms))
                full_best = b;
        }
        EXPECT_EQ(fan.winner, full_best);
    }
    return oracle_ok;
}

TEST(MultistartFanTest, FailingGridPointsMatchTheFullFan) {
    // Every grid point of the default exponent grid over seeded walks,
    // with the solver's radio range and two tighter ones so that both
    // outcomes occur often.
    locble::Rng rng(202);
    int ok = 0, failed = 0, rescued = 0;
    for (int walk = 0; walk < 9; ++walk) {
        const Packed pk(seeded_walk(rng, walk % 2 == 0, 1 + static_cast<std::size_t>(walk % 3)));
        Scratch sc(pk);
        const double max_range = walk % 3 == 0 ? 25.0 : (walk % 3 == 1 ? 8.0 : 4.0);
        for (int i = 0; i <= 96; i += 3) {
            const double n = 1.2 + 0.05 * i;
            SCOPED_TRACE(::testing::Message() << "walk " << walk << " n " << n);
            const bool accepted = check_against_oracle(pk, sc, pk.problem(n, KernelMode::lanes),
                                                       -60.0, max_range, true, &rescued);
            (accepted ? ok : failed) += 1;
        }
    }
    EXPECT_GT(ok, 20);
    EXPECT_GT(failed, 20);
    EXPECT_GT(rescued, 0);  // the set-aside fallback decides some grid points
}

TEST(MultistartFanTest, WithoutGaussNewtonThePickEqualsTheFullFan) {
    locble::Rng rng(303);
    int ok = 0, failed = 0;
    for (int walk = 0; walk < 6; ++walk) {
        const Packed pk(seeded_walk(rng, walk % 2 == 0, 1 + static_cast<std::size_t>(walk % 2)));
        Scratch sc(pk);
        for (const double max_range : {25.0, 5.0}) {
            for (int i = 0; i <= 96; i += 8) {
                const double n = 1.2 + 0.05 * i;
                SCOPED_TRACE(::testing::Message() << "walk " << walk << " n " << n);
                const bool accepted = check_against_oracle(
                    pk, sc, pk.problem(n, KernelMode::lanes), -60.0, max_range, false);
                (accepted ? ok : failed) += 1;
            }
        }
    }
    EXPECT_GT(ok, 0);
    EXPECT_GT(failed, 0);
}

TEST(MultistartFanTest, WithoutGaussNewtonSolvesMatchTheFullFanGoldens) {
    // Whole solves with use_gn_refinement = false on two walks whose grid
    // points fall back to the fan (51 and all 97 of them), pinned as
    // hexfloat goldens captured with the full 8-bearing fan (x86-64 /
    // glibc, like SingleSegmentGoldenTest).
    struct Golden {
        int walk, multistarts;
        double x, y, exponent, residual, confidence;
        bool ambiguous;
        std::vector<double> gammas;
    };
    const Golden goldens[] = {
        {4, 51, 0x1.dbe55c150e7a9p+1, 0x1.dbe55c150e7a7p+1, 0x1.bfffffffffff5p+1,
         0x1.0fff73141d6d3p+1, 0x1p+0, false, {-0x1.6085221902c08p+5, -0x1.7a343cd9649cp+5}},
        {6, 97, 0x1.1ad7bc01366b8p+4, 0x1.1ad7bc01366b7p+4, 0x1.8cccccccccccep+0,
         0x1.808027e96aab1p+1, 0x1p+0, false, {-0x1.173aae81fa49ap+6}},
    };
    LocationSolver::Config cfg;
    cfg.use_gn_refinement = false;
    locble::Rng rng(505);
    std::size_t next = 0;
    for (int walk = 0; walk < 7; ++walk) {
        const auto samples =
            seeded_walk(rng, walk % 2 == 0, 1 + static_cast<std::size_t>(walk % 3));
        if (next == std::size(goldens) || goldens[next].walk != walk) continue;
        const Golden& g = goldens[next++];
        SCOPED_TRACE(::testing::Message() << "walk " << walk);
        SolveDiagnostics diag;
        const auto fit = LocationSolver(cfg).solve(samples, {}, &diag);
        EXPECT_EQ(diag.multistart_runs, g.multistarts);
        ASSERT_TRUE(fit.has_value());
        EXPECT_EQ(fit->location.x, g.x);
        EXPECT_EQ(fit->location.y, g.y);
        EXPECT_EQ(fit->exponent, g.exponent);
        EXPECT_EQ(fit->residual_db, g.residual);
        EXPECT_EQ(fit->confidence, g.confidence);
        EXPECT_EQ(fit->ambiguous, g.ambiguous);
        EXPECT_EQ(fit->segment_gammas, g.gammas);
    }
    EXPECT_EQ(next, std::size(goldens));
}

TEST(MultistartFanTest, RankingIdenticalAcrossKernelModes) {
    // scalar_reference is width-independent and the lane kernels are
    // bit-identical to it at every width (solver_kernels.hpp), so equal
    // rankings here at each build width mean one ranking at every width.
    locble::Rng rng(404);
    for (int walk = 0; walk < 8; ++walk) {
        const Packed pk(seeded_walk(rng, walk % 2 == 0, 1 + static_cast<std::size_t>(walk % 3)));
        Scratch lanes_sc(pk), ref_sc(pk);
        for (int i = 0; i <= 96; i += 6) {
            const double n = 1.2 + 0.05 * i;
            SCOPED_TRACE(::testing::Message() << "walk " << walk << " n " << n);
            const double d0 = start_range(pk, n, -60.0);
            const gn::FanResult a = gn::multistart_fan(pk.problem(n, KernelMode::lanes),
                                                       lanes_sc.fan(), d0, -60.0, 25.0, true);
            const gn::FanResult b =
                gn::multistart_fan(pk.problem(n, KernelMode::scalar_reference), ref_sc.fan(),
                                   d0, -60.0, 25.0, true);
            EXPECT_EQ(a.order, b.order);
            EXPECT_EQ(a.finished, b.finished);
            EXPECT_EQ(a.ok, b.ok);
            EXPECT_EQ(a.winner, b.winner);
            if (a.ok && b.ok) {
                expect_same_state(a.loc, lanes_sc.gam_best.data(), b.loc,
                                  ref_sc.gam_best.data(), pk.k);
                EXPECT_EQ(a.stats.rms_db, b.stats.rms_db);
                EXPECT_EQ(a.stats.confidence, b.stats.confidence);
            }
        }
    }
}

}  // namespace
}  // namespace locble::core
