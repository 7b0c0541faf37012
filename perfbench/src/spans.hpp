#pragma once

// In-memory span recording for the traced run. The benchmark opens a span
// around each of its own calls into a library module; nothing inside the
// library is instrumented. Spans are kept in memory and written out once the
// run ends, so recording costs one clock read and a vector append.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    const char* name{""};  ///< string literal
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::int32_t parent{-1};  ///< index of the enclosing span, -1 at the root
    std::uint64_t op{0};      ///< operation (epoch, fix, cycle) the span served
};

/// Records spans from one thread. A disabled recorder records nothing, so
/// the same benchmark code runs the traced and the untraced measurement.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /// Open a span nested in the innermost open one; returns its index, or
    /// -1 when disabled.
    std::int32_t begin(const char* name, std::uint64_t op) {
        if (!enabled_) return -1;
        const auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), op});
        open_.push_back(id);
        return id;
    }

    /// Close span `id`, which must be the innermost open one.
    void end(std::int32_t id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        open_.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t op)
        : rec_(rec), id_(rec.begin(name, op)) {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder& rec_;
    std::int32_t id_;
};

/// Self time of every span in ns: its duration minus the part of its
/// interval that the union of its children covers. Children may overlap
/// each other or stick out of the parent; each instant counts once.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& p = spans[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start_ns;  // end of the union so far
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, p.end_ns);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (p.end_ns - p.start_ns) - covered;
    }
    return self;
}

/// Per operation, the summed self time in microseconds of the spans named
/// `name`, over every operation that has a root span named `root` (an
/// operation without a `name` span contributes 0).
inline std::vector<double> per_op_self_us(const std::vector<Span>& spans,
                                          const std::vector<std::int64_t>& self,
                                          const std::string& root, const std::string& name) {
    std::map<std::uint64_t, double> by_op;
    for (const Span& s : spans)
        if (s.parent < 0 && root == s.name) by_op.emplace(s.op, 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = by_op.find(spans[i].op);
        if (it != by_op.end() && name == spans[i].name)
            it->second += static_cast<double>(self[i]) / 1e3;
    }
    std::vector<double> out;
    out.reserve(by_op.size());
    for (const auto& [op, us] : by_op) out.push_back(us);
    return out;
}

/// Write the spans as JSON lines (one object per span, times in ns
/// relative to the first span). Returns false on an I/O failure.
inline bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans,
                              const std::vector<std::int64_t>& self) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    bool ok = true;
    for (std::size_t i = 0; i < spans.size() && ok; ++i) {
        const Span& s = spans[i];
        ok = std::fprintf(f,
                          "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%d,"
                          "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                          i, s.name, static_cast<unsigned long long>(s.op), s.parent,
                          static_cast<long long>(s.start_ns - t0),
                          static_cast<long long>(s.end_ns - t0),
                          static_cast<long long>(self[i])) > 0;
    }
    return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
