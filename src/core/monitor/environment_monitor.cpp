#include "core/monitor/environment_monitor.h"

#include "util/error.h"

namespace cres::core {

EnvironmentMonitor::EnvironmentMonitor(EventSink& sink,
                                       const sim::Simulator& sim,
                                       dev::PowerSensor& sensor,
                                       const EnvironmentEnvelope& envelope,
                                       std::uint32_t period)
    : Monitor("environment-monitor", sink),
      sim_(sim),
      sensor_(sensor),
      envelope_(envelope),
      period_(period),
      countdown_(period) {
    if (period_ == 0) throw Error("EnvironmentMonitor: zero period");
}

void EnvironmentMonitor::tick(sim::Cycle now) {
    if (--countdown_ > 0) return;
    countdown_ = period_;
    note_poll(now);

    const double v = sensor_.voltage();
    const double t = sensor_.temperature();
    const bool bad_v = voltage_bad(v);
    const bool bad_t = temperature_bad(t);

    if ((bad_v || bad_t) && !in_excursion_) {
        in_excursion_ = true;
        ++excursions_;
        emit(now, EventCategory::kEnvironment, EventSeverity::kAlert,
             std::string(sensor_.name()),
             bad_v ? "voltage excursion (glitch suspected)"
                   : "temperature excursion",
             static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(dev::to_fixed(v))),
             static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(dev::to_fixed(t))));
    } else if (!bad_v && !bad_t && in_excursion_) {
        in_excursion_ = false;
        emit(now, EventCategory::kEnvironment, EventSeverity::kInfo,
             std::string(sensor_.name()), "environment back in envelope", 0,
             0);
    }
}

sim::Cycle EnvironmentMonitor::next_activity(sim::Cycle now) {
    const bool outside = voltage_bad(sensor_.voltage()) ||
                         temperature_bad(sensor_.temperature());
    if (!sensor_.glitch_active() && outside == in_excursion_) {
        return kIdleForever;
    }
    return now + countdown_ - 1;
}

void EnvironmentMonitor::skip(sim::Cycle now, sim::Cycle cycles) {
    if (cycles < countdown_) {
        countdown_ -= static_cast<std::uint32_t>(cycles);
        return;
    }
    // Decision-free polls at now + countdown_ - 1, then every period_.
    const sim::Cycle first = now + countdown_ - 1;
    const sim::Cycle after_first = cycles - countdown_;
    countdown_ = period_ - static_cast<std::uint32_t>(after_first % period_);
    note_polls(first, 1 + after_first / period_, period_);
}

}  // namespace cres::core
