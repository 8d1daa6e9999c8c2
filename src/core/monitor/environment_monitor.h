// Environment monitor: polls the power/thermal sensor against the
// provisioned operating envelope. Voltage excursions (glitch attacks)
// and thermal runaway raise events.
#pragma once

#include "core/monitor/monitor.h"
#include "dev/power.h"

namespace cres::core {

struct EnvironmentEnvelope {
    double min_voltage = 3.0;
    double max_voltage = 3.6;
    double min_temp = -20.0;
    double max_temp = 85.0;
};

class EnvironmentMonitor : public Monitor, public sim::Tickable {
public:
    EnvironmentMonitor(EventSink& sink, const sim::Simulator& sim,
                       dev::PowerSensor& sensor,
                       const EnvironmentEnvelope& envelope,
                       std::uint32_t period = 50);

    std::string description() const override {
        return "voltage/temperature envelope watch (glitch and thermal "
               "attack detection)";
    }

    void tick(sim::Cycle now) override;

    /// Quiescence: wakes on the next poll that can change a decision.
    /// With no glitch active the readings move only through an event
    /// or a host call, after both of which the kernel rescans; so once
    /// the envelope verdict matches in_excursion_, every poll is a
    /// no-op and reports kIdleForever. skip() replays the countdown
    /// and the elided polls' metrics exactly.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;
    void skip(sim::Cycle now, sim::Cycle cycles) override;

    [[nodiscard]] std::uint64_t excursions() const noexcept {
        return excursions_;
    }

private:
    [[nodiscard]] bool voltage_bad(double v) const noexcept {
        return v < envelope_.min_voltage || v > envelope_.max_voltage;
    }
    [[nodiscard]] bool temperature_bad(double t) const noexcept {
        return t < envelope_.min_temp || t > envelope_.max_temp;
    }

    const sim::Simulator& sim_;
    dev::PowerSensor& sensor_;
    EnvironmentEnvelope envelope_;
    std::uint32_t period_;
    std::uint32_t countdown_;
    bool in_excursion_ = false;
    std::uint64_t excursions_ = 0;
};

}  // namespace cres::core
