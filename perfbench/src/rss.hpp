#pragma once

// Peak resident set size of the benchmark process, and its reset (Linux /proc).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace perfbench {

/// Peak RSS in MiB from the text of /proc/<pid>/status: its "VmHWM:" line,
/// which the kernel prints in kB. nullopt when the line is absent or holds
/// no number.
inline std::optional<double> parse_vmhwm_mb(std::string_view status) {
    constexpr std::string_view key = "VmHWM:";
    std::size_t pos = 0;
    while (pos < status.size()) {
        const std::size_t eol = std::min(status.find('\n', pos), status.size());
        const std::string_view line = status.substr(pos, eol - pos);
        if (line.substr(0, key.size()) == key) {
            std::istringstream in{std::string(line.substr(key.size()))};
            double kb = 0.0;
            std::string unit;
            if (!(in >> kb >> unit) || unit != "kB" || kb < 0.0) return std::nullopt;
            return kb / 1024.0;
        }
        pos = eol + 1;
    }
    return std::nullopt;
}

/// Peak RSS of this process in MiB; throws when /proc/self/status cannot
/// be read or carries no VmHWM line.
inline double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    std::stringstream text;
    text << f.rdbuf();
    const std::optional<double> mb = parse_vmhwm_mb(text.str());
    if (!mb) throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
    return *mb;
}

/// Lower this process's peak RSS (VmHWM) to its current RSS, so that a
/// later peak_rss_mb() covers only what ran after the call. Writes "5" to
/// /proc/self/clear_refs (Linux 4.0 and later); false when it cannot.
/// First, on glibc, returns the heap's free memory to the system: memory
/// that is freed but still resident would otherwise absorb later growth
/// without raising the peak.
inline bool reset_peak_rss() {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream f("/proc/self/clear_refs");
    f << "5" << std::flush;
    return static_cast<bool>(f);
}

}  // namespace perfbench
