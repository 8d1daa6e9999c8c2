// Configuration-audit monitor: snapshots the interconnect's security
// configuration (region attributes) as a golden reference at arm time,
// then periodically re-audits it. Detects the bus-attribute tampering
// attack of [34], which no transaction-level monitor can see (the
// tampered accesses are "legal" once the attribute has been cleared).
#pragma once

#include <set>
#include <vector>

#include "core/monitor/monitor.h"
#include "mem/bus.h"

namespace cres::core {

class ConfigMonitor : public Monitor, public sim::Tickable {
public:
    ConfigMonitor(EventSink& sink, const sim::Simulator& sim, mem::Bus& bus,
                  sim::Cycle period = 200);

    std::string description() const override {
        return "periodic audit of interconnect security attributes "
               "against the boot-time golden configuration";
    }

    /// Captures the current bus configuration as the golden reference.
    void snapshot_golden();

    void tick(sim::Cycle now) override;

    /// Quiescence: wakes on the next audit that can change a decision.
    /// Configuration changes bump bus_.config_generation() and happen
    /// only in an event, a host call or a stepped tick, after each of
    /// which the kernel rescans. An audit of the generation already
    /// audited against the current golden set re-derives the latched
    /// verdicts and emits nothing, so with nothing to compare or
    /// nothing changed this reports kIdleForever and skip() replays
    /// the audits.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;
    void skip(sim::Cycle now, sim::Cycle cycles) override;

    [[nodiscard]] std::uint64_t drifts_detected() const noexcept {
        return drifts_;
    }

private:
    static constexpr std::uint64_t kNotAudited = ~std::uint64_t{0};

    const sim::Simulator& sim_;
    mem::Bus& bus_;
    sim::Cycle period_;
    sim::Cycle next_audit_;
    /// Bus configuration generation seen by the last audit since
    /// snapshot_golden().
    std::uint64_t audited_generation_ = kNotAudited;
    std::vector<mem::RegionConfig> golden_;
    std::set<std::string> drifted_;  ///< Latched per-region (one event each).
    std::uint64_t drifts_ = 0;
};

}  // namespace cres::core
