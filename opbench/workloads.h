// The CRES operator benchmark: one operator process driving one
// platform::Fleet through its public API, in closed-loop epochs. The
// metric definitions live in opbench/METRICS.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cres::platform {
class Fleet;
}

namespace opbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Spans recorded by the benchmark's own code around each public call
/// it makes. Kept in memory; written out when the run ends. A disabled
/// tracer records nothing.
class Tracer {
public:
    struct Span {
        std::string name;
        int parent = -1;  ///< Index into spans(), -1 for a root.
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /// Opens a span under `parent`; returns its id (-1 when disabled).
    int open(std::string name, int parent) {
        if (!enabled_) return -1;
        const auto now = Clock::now();
        spans_.push_back({std::move(name), parent, now, now});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    /// The spans as one JSON document (microseconds from the first).
    [[nodiscard]] std::string json() const;

private:
    bool enabled_;
    std::vector<Span> spans_;
};

/// Counts that depend only on the simulated work, never on host speed:
/// a speed-only change must reproduce every one of them exactly.
struct ExactCounts {
    std::uint64_t node_cycles = 0;
    std::uint64_t instret = 0;
    std::uint64_t translated_instret = 0;
    std::uint64_t elided_ops = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t cycles_skipped = 0;
    std::uint64_t ssm_events = 0;
    std::uint64_t monitor_polls = 0;
    std::uint64_t siem_records = 0;
    std::uint64_t siem_dropped = 0;
    std::uint64_t resident_ram_bytes = 0;
    std::uint64_t firmware_store_bytes = 0;
    std::uint64_t analysis_hits = 0;
    std::uint64_t analysis_misses = 0;
    std::uint64_t translation_hits = 0;
    std::uint64_t translation_misses = 0;
    std::uint64_t campaigns = 0;
    /// Per campaign kind (worm, replay, downgrade): detected_at -
    /// first_at of the first incident, 0 when undetected.
    std::uint64_t latency_cycles[3] = {0, 0, 0};
    std::string estate_digest;  ///< Hex SHA-256 of per-device state.
    std::string siem_head;      ///< Hex SIEM chain head.
    /// Campaign verdicts: "kind@first_at/detected_at/devices;...".
    std::string verdicts;

    /// Every field as "name=value" lines, for equality checks and
    /// mismatch reports.
    [[nodiscard]] std::string describe() const;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t workers = 1;
    /// Reduced sizes and a fixed epoch count instead of a time budget:
    /// the determinism self-test mode.
    bool reduced = false;
};

/// Host time and work of the measured epochs (warm-up epochs, and the
/// campaign's first episode, run but are not counted here).
struct LoopTotals {
    std::vector<double> epoch_s;  ///< One per measured epoch.
    double loop_s = 0.0;          ///< Sum of epoch_s.
    double node_cycles = 0.0;     ///< devices x cycles.
    std::uint64_t instret = 0;
    /// node-cycles/s of each block of consecutive epochs (a campaign
    /// episode, or kBlockEpochs estate epochs); the reported rate is
    /// their median, so one burst of host noise moves one block only.
    std::vector<double> block_rates;
    double block_cycles = 0.0;
    double block_s = 0.0;

    // Host time inside each Fleet call, and the work it did.
    double run_s = 0.0;
    double drain_s = 0.0;
    double sweep_s = 0.0;
    double health_s = 0.0;
    std::uint64_t drained_records = 0;
    std::uint64_t swept_devices = 0;
    std::uint64_t health_devices = 0;

    /// Ends the current block of epochs and records its rate.
    void close_block();
};

struct Result {
    std::size_t devices = 0;
    std::uint64_t epoch_cycles = 0;
    std::size_t episodes = 0;
    std::vector<double> setup_s;  ///< One per Fleet::Fleet.
    LoopTotals loop;
    std::vector<double> verdict_s;  ///< Campaign: one per episode.
    ExactCounts exact;              ///< At a fixed simulated point.
    /// VmHWM when `exact` was taken: the peak over a fixed amount of
    /// work, so it does not grow with the epochs a time budget allows.
    double peak_rss_mb = 0.0;

    std::uint64_t attempted = 0;  ///< Correctness checks made.
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< First few, for the report.

    Tracer tracer{false};

    void check(bool ok, const std::string& what);
    void check_many(std::uint64_t attempted_checks,
                    std::uint64_t failed_checks, const std::string& what);
};

[[nodiscard]] bool known_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload to completion (never throws on a failed check:
/// failures are counted into the result).
[[nodiscard]] Result run_workload(const Options& options);

/// The layer ledger: ns per guest instruction at each layer, from the
/// bare CPU up to one fleet epoch (1 worker, control-loop firmware).
struct LedgerRow {
    std::string name;
    double ns_per_instr = 0.0;
};
[[nodiscard]] std::vector<LedgerRow> run_ledger(std::uint64_t seed);

/// Guest instructions retired so far, summed over the fleet.
[[nodiscard]] std::uint64_t total_instret(cres::platform::Fleet& fleet);

/// The value after "key:" on the first matching line of a /proc file
/// ("" when absent).
[[nodiscard]] std::string proc_field(const std::string& path,
                                     const std::string& key);

/// VmHWM of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Quantile with linear interpolation between closest ranks (the
/// "inclusive" method of Python's statistics.quantiles).
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace opbench
