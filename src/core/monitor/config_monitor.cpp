#include "core/monitor/config_monitor.h"

namespace cres::core {

ConfigMonitor::ConfigMonitor(EventSink& sink, const sim::Simulator& sim,
                             mem::Bus& bus, sim::Cycle period)
    : Monitor("config-monitor", sink),
      sim_(sim),
      bus_(bus),
      period_(period == 0 ? 1 : period),
      next_audit_(period_) {}

void ConfigMonitor::snapshot_golden() {
    golden_ = bus_.regions();
    audited_generation_ = kNotAudited;
}

void ConfigMonitor::tick(sim::Cycle now) {
    if (now < next_audit_) return;
    next_audit_ = now + period_;
    if (golden_.empty()) return;
    note_poll(now);
    audited_generation_ = bus_.config_generation();

    for (const auto& gold : golden_) {
        const mem::RegionConfig* live = bus_.find_region(gold.name);
        const bool drifted =
            live == nullptr || live->secure_only != gold.secure_only ||
            live->read_only != gold.read_only || live->base != gold.base ||
            live->size != gold.size;

        if (drifted && drifted_.insert(gold.name).second) {
            ++drifts_;
            emit(now, EventCategory::kBusViolation, EventSeverity::kCritical,
                 gold.name,
                 live == nullptr
                     ? "mapped region vanished from interconnect"
                     : "interconnect security attributes drifted from "
                       "golden configuration",
                 live == nullptr ? 0 : live->base, gold.base);
        } else if (!drifted && drifted_.erase(gold.name) > 0) {
            emit(now, EventCategory::kBusViolation, EventSeverity::kInfo,
                 gold.name, "region configuration restored to golden", 0, 0);
        }
    }
}

sim::Cycle ConfigMonitor::next_activity(sim::Cycle now) {
    if (golden_.empty() || audited_generation_ == bus_.config_generation()) {
        return kIdleForever;
    }
    return next_audit_ > now ? next_audit_ : now;
}

void ConfigMonitor::skip(sim::Cycle now, sim::Cycle cycles) {
    const sim::Cycle end = now + cycles;
    const sim::Cycle first = next_audit_ > now ? next_audit_ : now;
    if (first >= end) return;
    const sim::Cycle audits = 1 + (end - 1 - first) / period_;
    next_audit_ = first + audits * period_;
    if (!golden_.empty()) note_polls(first, audits, period_);
}

}  // namespace cres::core
