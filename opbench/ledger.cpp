// The outside-in layer ledger: ns per guest instruction on the
// control-loop firmware at 1 worker, timed around a public call at each
// layer. The gap between adjacent rows is the cost of the layer added.
#include <functional>
#include <memory>
#include <utility>

#include "analysis/translate.h"
#include "isa/cpu.h"
#include "mem/bus.h"
#include "mem/ram.h"
#include "platform/fleet.h"
#include "platform/memmap.h"
#include "platform/workload.h"
#include "workloads.h"

namespace opbench {

using namespace cres;

namespace {

/// Timed repetitions per row. Rows are timed round-robin, so a drift
/// in host speed moves every row alike and the gaps stay attributable.
constexpr int kReps = 9;

/// A CPU-only machine: app RAM plus RAM-backed stand-ins for the
/// peripherals the control loop touches, so wall time is guest
/// execution and nothing else (the E15 guest-throughput machine).
struct GuestMachine {
    mem::Bus bus;
    mem::Ram app_ram{"app_ram", platform::kAppRamSize};
    mem::Ram wdog{"wdog", 0x100};
    mem::Ram sensor{"sensor", 0x100};
    mem::Ram actuator{"actuator", 0x100};
    isa::Cpu cpu{"cpu", bus};

    explicit GuestMachine(const isa::Program& program) {
        bus.map({"app_ram", platform::kAppRamBase, platform::kAppRamSize,
                 false, false},
                app_ram);
        bus.map({"wdog", platform::kWdogBase, 0x100, false, false}, wdog);
        bus.map({"sensor", platform::kSensorBase, 0x100, false, false},
                sensor);
        bus.map({"actuator", platform::kActuatorBase, 0x100, false, false},
                actuator);
        cpu.set_ecall_handler([](isa::Cpu&, std::uint16_t) { return true; });
        app_ram.load(program.origin - platform::kAppRamBase, program.code);
        cpu.reset(program.origin);
        cpu.install_translation(analysis::translate_image_shared(
            program.code, program.origin, program.origin));
    }
};

/// One ledger row: a body that advances its layer by a fixed amount of
/// work and returns the guest instructions it retired.
using RowBody = std::function<std::uint64_t()>;

RowBody guest_row(GuestMachine& m, bool threaded) {
    const std::uint64_t steps = threaded ? 8'000'000 : 2'000'000;
    return [&m, threaded, steps] {
        const std::uint64_t before = m.cpu.instret();
        if (threaded) {
            std::uint64_t done = 0;
            while (done < steps) {
                const std::uint64_t n = m.cpu.run_steps(steps - done);
                if (n == 0) break;
                done += n;
            }
        } else {
            for (std::uint64_t i = 0; i < steps; ++i) {
                if (!m.cpu.step()) break;
            }
        }
        return m.cpu.instret() - before;
    };
}

platform::FleetConfig ledger_fleet(std::uint64_t seed, bool resilient,
                                   bool observed) {
    platform::FleetConfig c;
    c.device_count = 1;
    c.seed = seed;
    c.worker_threads = 1;
    c.resilient = resilient;
    c.interrupt_workload = false;
    if (!observed) {
        c.metrics = false;
        c.flight_recorder_capacity = 0;
        c.siem_buffer_capacity = 0;
        c.causal_tracing = false;
    }
    return c;
}

RowBody fleet_row(platform::Fleet& fleet, sim::Cycle cycles, bool health) {
    return [&fleet, cycles, health] {
        const std::uint64_t before = total_instret(fleet);
        fleet.run(cycles);
        if (health) (void)fleet.collect_health();
        return total_instret(fleet) - before;
    };
}

}  // namespace

std::vector<LedgerRow> run_ledger(std::uint64_t seed) {
    const isa::Program program = platform::control_loop_program();
    GuestMachine threaded(program);
    GuestMachine stepped(program);
    platform::Fleet node(ledger_fleet(seed, false, false));
    platform::Fleet monitored(ledger_fleet(seed, true, false));
    platform::Fleet observed(ledger_fleet(seed, true, true));
    // One control_busy epoch (run + health collection) at 1 worker.
    platform::FleetConfig busy;
    busy.device_count = 256;
    busy.seed = seed;
    busy.worker_threads = 1;
    busy.resilient = true;
    busy.interrupt_workload = false;
    platform::Fleet epoch(busy);

    const std::vector<std::pair<const char*, RowBody>> rows = {
        {"ledger.run_steps_ns_per_instr", guest_row(threaded, true)},
        {"ledger.step_ns_per_instr", guest_row(stepped, false)},
        {"ledger.node_ns_per_instr", fleet_row(node, 400'000, false)},
        {"ledger.monitors_ns_per_instr", fleet_row(monitored, 400'000, false)},
        {"ledger.observed_ns_per_instr", fleet_row(observed, 400'000, false)},
        {"ledger.epoch_ns_per_instr", fleet_row(epoch, 2000, true)},
    };
    std::vector<std::vector<double>> samples(rows.size());
    for (int rep = -1; rep < kReps; ++rep) {  // rep -1 warms up.
        for (std::size_t row = 0; row < rows.size(); ++row) {
            const auto t0 = Clock::now();
            const std::uint64_t instr = rows[row].second();
            const double s = seconds_between(t0, Clock::now());
            if (rep >= 0 && instr > 0) {
                samples[row].push_back(s * 1e9 / static_cast<double>(instr));
            }
        }
    }
    std::vector<LedgerRow> out;
    for (std::size_t row = 0; row < rows.size(); ++row) {
        out.push_back({rows[row].first, quantile(samples[row], 0.5)});
    }
    return out;
}

}  // namespace opbench
