#include "locble/runtime/bench_report.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "locble/common/cdf.hpp"
#include "locble/obs/quantile.hpp"

namespace locble::runtime {

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string json_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::set_run(int trials, unsigned threads, std::uint64_t seed) {
    trials_ = trials;
    threads_ = threads;
    seed_ = seed;
}

void BenchReport::add_scalar(const std::string& key, double value) {
    metrics_.emplace_back(key, Value(value));
}

void BenchReport::add_text(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, Value(value));
}

void BenchReport::add_summary(const std::string& key, std::span<const double> samples) {
    if (samples.empty()) {
        metrics_.emplace_back(key, Value(Summary{0, 0.0, 0.0, 0.0, 0.0, 0.0}));
        return;
    }
    const EmpiricalCdf cdf(samples);
    metrics_.emplace_back(key, Value(Summary{cdf.count(), cdf.mean(), cdf.median(),
                                             cdf.percentile(0.9), cdf.min(),
                                             cdf.max()}));
}

void BenchReport::add_obs_counter(const std::string& key, std::uint64_t value) {
    obs_.emplace_back(key, ObsValue(value));
}

void BenchReport::add_obs_gauge(const std::string& key, double value) {
    obs_.emplace_back(key, ObsValue(value));
}

void BenchReport::add_obs_histogram(const std::string& key,
                                    std::vector<std::uint64_t> buckets,
                                    std::vector<double> bounds) {
    obs_.emplace_back(key, ObsValue(ObsHistogram{std::move(buckets), std::move(bounds)}));
}

void BenchReport::add_obs_quantile(const std::string& key,
                                   std::vector<std::uint64_t> buckets,
                                   double upper_bound) {
    obs_.emplace_back(key, ObsValue(ObsQuantile{std::move(buckets), upper_bound}));
}

std::string BenchReport::to_json() const {
    std::string out = "{\n";
    out += "  \"schema_version\": " + std::to_string(kBenchReportSchemaVersion) + ",\n";
    out += "  \"bench\": \"" + json_escape(name_) + "\",\n";
    out += "  \"trials\": " + std::to_string(trials_) + ",\n";
    out += "  \"threads\": " + std::to_string(threads_) + ",\n";
    out += "  \"seed\": " + std::to_string(seed_) + ",\n";
    out += "  \"wall_seconds\": " + json_number(wall_seconds_) + ",\n";
    out += "  \"metrics\": {\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto& [key, value] = metrics_[i];
        out += "    \"" + json_escape(key) + "\": ";
        if (const auto* d = std::get_if<double>(&value)) {
            out += json_number(*d);
        } else if (const auto* s = std::get_if<std::string>(&value)) {
            out += '"';
            out += json_escape(*s);
            out += '"';
        } else {
            const auto& sm = std::get<Summary>(value);
            out += "{\"count\": " + std::to_string(sm.count);
            out += ", \"mean\": " + json_number(sm.mean);
            out += ", \"median\": " + json_number(sm.median);
            out += ", \"p90\": " + json_number(sm.p90);
            out += ", \"min\": " + json_number(sm.min);
            out += ", \"max\": " + json_number(sm.max) + "}";
        }
        out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "  }";
    if (!obs_.empty()) {
        out += ",\n  \"obs\": {\n";
        for (std::size_t i = 0; i < obs_.size(); ++i) {
            const auto& [key, value] = obs_[i];
            out += "    \"" + json_escape(key) + "\": ";
            if (const auto* c = std::get_if<std::uint64_t>(&value)) {
                out += std::to_string(*c);
            } else if (const auto* g = std::get_if<double>(&value)) {
                out += json_number(*g);
            } else if (const auto* h = std::get_if<ObsHistogram>(&value)) {
                std::uint64_t total = 0;
                for (const std::uint64_t b : h->buckets) total += b;
                out += "{\"count\": " + std::to_string(total);
                out += ", \"buckets\": [";
                for (std::size_t b = 0; b < h->buckets.size(); ++b) {
                    if (b > 0) out += ", ";
                    out += std::to_string(h->buckets[b]);
                }
                out += "], \"bounds\": [";
                for (std::size_t b = 0; b < h->bounds.size(); ++b) {
                    if (b > 0) out += ", ";
                    out += json_number(h->bounds[b]);
                }
                out += "]}";
            } else {
                const auto& q = std::get<ObsQuantile>(value);
                std::uint64_t total = 0;
                for (const std::uint64_t b : q.buckets) total += b;
                out += "{\"count\": " + std::to_string(total);
                out += ", \"upper_bound\": " + json_number(q.upper_bound);
                out += ", \"p50\": " +
                       json_number(obs::sketch_quantile(q.buckets, q.upper_bound, 0.50));
                out += ", \"p95\": " +
                       json_number(obs::sketch_quantile(q.buckets, q.upper_bound, 0.95));
                out += ", \"p99\": " +
                       json_number(obs::sketch_quantile(q.buckets, q.upper_bound, 0.99));
                out += ", \"buckets\": [";
                for (std::size_t b = 0; b < q.buckets.size(); ++b) {
                    if (b > 0) out += ", ";
                    out += std::to_string(q.buckets[b]);
                }
                out += "]}";
            }
            out += i + 1 < obs_.size() ? ",\n" : "\n";
        }
        out += "  }";
    }
    out += "\n}\n";
    return out;
}

std::string BenchReport::write(const std::string& dir) const {
    const std::string path =
        (dir.empty() || dir == "." ? std::string() : dir + "/") + "BENCH_" + name_ +
        ".json";
    std::ofstream file(path, std::ios::trunc);
    if (!file) throw std::runtime_error("BenchReport: cannot write " + path);
    file << to_json();
    return path;
}

}  // namespace locble::runtime
