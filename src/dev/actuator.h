// Physical actuator (e.g. breaker, valve, motor drive). Counts every
// command (clamped, unsafe, total travel) so experiments can quantify
// the physical impact ("damage") of an attack, and keeps the most
// recent commands with their cycle stamps for inspection. Memory stays
// bounded however long the plant runs. Register map:
//   0x00 COMMAND (W) signed 16.16 fixed-point setpoint
//   0x04 CURRENT (R) last accepted setpoint
//   0x08 COUNT   (R) number of commands
#pragma once

#include <vector>

#include "dev/device.h"
#include "dev/sensor.h"  // to_fixed/from_fixed

namespace cres::dev {

class Actuator : public Device {
public:
    /// Commands outside [min_value, max_value] are *physically* clamped
    /// but still recorded (the plant protects itself; the monitor's job
    /// is to notice the attempt).
    Actuator(std::string name, double min_value, double max_value);

    /// A command is unsafe when it was clamped or its applied setpoint
    /// lies outside ±kSafeLimit (the plant's safe operating band).
    static constexpr double kSafeLimit = 50.0;

    static constexpr mem::Addr kRegCommand = 0x00;
    static constexpr mem::Addr kRegCurrent = 0x04;
    static constexpr mem::Addr kRegCount = 0x08;

    struct Command {
        sim::Cycle at = 0;
        double requested = 0.0;
        double applied = 0.0;
        bool clamped = false;
    };

    /// How many of the latest commands recent() keeps.
    static constexpr std::size_t kRecentWindow = 64;

    void tick(sim::Cycle now) override { now_ = now; }

    /// Quiescence: the actuator only timestamps bus commands, which
    /// land exclusively on stepped cycles; skip() replays the clock
    /// latch of the elided ticks.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle /*now*/) override {
        return kIdleForever;
    }
    void skip(sim::Cycle now, sim::Cycle cycles) override {
        now_ = now + cycles - 1;
    }

    [[nodiscard]] double current() const noexcept { return current_; }
    /// The last min(command_count(), kRecentWindow) commands, oldest
    /// first.
    [[nodiscard]] std::vector<Command> recent() const;

    /// Every command ever written, including those recent() dropped.
    [[nodiscard]] std::size_t command_count() const noexcept {
        return count_;
    }
    [[nodiscard]] std::size_t clamped_count() const noexcept {
        return clamped_;
    }
    [[nodiscard]] std::size_t unsafe_count() const noexcept {
        return unsafe_;
    }

    /// Total |applied| movement — a crude physical-wear/damage metric.
    [[nodiscard]] double total_travel() const noexcept { return travel_; }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    double min_;
    double max_;
    double current_ = 0.0;
    sim::Cycle now_ = 0;
    std::size_t count_ = 0;
    std::size_t clamped_ = 0;
    std::size_t unsafe_ = 0;
    double travel_ = 0.0;
    /// Ring of the last kRecentWindow commands; command i sits at
    /// i % kRecentWindow.
    std::vector<Command> recent_;
};

}  // namespace cres::dev
