// E15 — Guest-execution throughput: the two-tier engine
// (docs/EXECUTION.md) vs the plain interpreter on the control-loop
// firmware. Measures guest MIPS for three drivers over identical
// machines — tier-0 step() without a translation, tier-1 step() with
// one, and tier-2 run_steps() threaded dispatch — then asserts the
// executions are architecturally identical (the lockstep contract) on
// the control loop and on a memory-bound scan, and writes
// BENCH_guest.json for the CI regression gate.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/translate.h"
#include "analysis/verifier.h"
#include "bench_util.h"
#include "isa/assembler.h"
#include "isa/cpu.h"
#include "mem/bus.h"
#include "mem/ram.h"
#include "platform/memmap.h"
#include "platform/workload.h"

namespace {

using namespace cres;

// A CPU-only machine: app RAM plus dumb RAM-backed stand-ins for the
// peripherals the control loop touches. No simulator, no device
// models — everything outside the core is constant, so wall time is
// guest execution and nothing else.
struct GuestMachine {
    mem::Bus bus;
    mem::Ram app_ram{"app_ram", platform::kAppRamSize};
    mem::Ram wdog{"wdog", 0x100};
    mem::Ram sensor{"sensor", 0x100};
    mem::Ram actuator{"actuator", 0x100};
    isa::Cpu cpu{"cpu", bus};
    std::uint64_t heartbeats = 0;

    explicit GuestMachine(const isa::Program& program, bool translate) {
        bus.map({"app_ram", platform::kAppRamBase, platform::kAppRamSize,
                 false, false},
                app_ram);
        bus.map({"wdog", platform::kWdogBase, 0x100, false, false}, wdog);
        bus.map({"sensor", platform::kSensorBase, 0x100, false, false},
                sensor);
        bus.map({"actuator", platform::kActuatorBase, 0x100, false, false},
                actuator);
        cpu.set_ecall_handler([this](isa::Cpu&, std::uint16_t) {
            ++heartbeats;  // All services handled; no architectural trap.
            return true;
        });
        app_ram.load(program.origin - platform::kAppRamBase, program.code);
        cpu.reset(program.origin);
        if (translate) {
            cpu.install_translation(analysis::translate_image_shared(
                program.code, program.origin, program.origin));
        }
    }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct Throughput {
    double mips = 0.0;
    std::uint64_t instret = 0;
};

// Runs `machine` for ~min_seconds of wall time in fixed-size chunks
// and rates retired guest instructions per second.
template <typename StepChunk>
Throughput measure(GuestMachine& machine, StepChunk&& chunk,
                   double min_seconds) {
    constexpr std::uint64_t kChunk = 1u << 18;
    // Warm-up: first chunk pays one-time costs (cache fills, branch
    // predictor training for the dispatch loop).
    chunk(machine, kChunk);

    const std::uint64_t start_instret = machine.cpu.instret();
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        chunk(machine, kChunk);
        elapsed = seconds_since(t0);
    } while (elapsed < min_seconds && !machine.cpu.halted());

    Throughput out;
    out.instret = machine.cpu.instret() - start_instret;
    out.mips = static_cast<double>(out.instret) / elapsed / 1e6;
    return out;
}

void step_chunk(GuestMachine& machine, std::uint64_t steps) {
    for (std::uint64_t i = 0; i < steps; ++i) {
        if (!machine.cpu.step()) break;
    }
}

void run_steps_chunk(GuestMachine& machine, std::uint64_t steps) {
    (void)machine.cpu.run_steps(steps);
}

// Drives all three engines for exactly `events` step events each and
// checks the lockstep contract on the final state. Returns false (and
// reports) on any divergence.
bool verify_lockstep(const isa::Program& program, std::uint64_t events) {
    GuestMachine interp(program, false);
    GuestMachine tier1(program, true);
    GuestMachine tier2(program, true);
    for (std::uint64_t i = 0; i < events; ++i) {
        (void)interp.cpu.step();
        (void)tier1.cpu.step();
    }
    std::uint64_t done = 0;
    while (done < events) {
        const std::uint64_t n = tier2.cpu.run_steps(events - done);
        if (n == 0) break;
        done += n;
    }

    bool ok = true;
    auto check = [&ok](const std::string& what, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c) {
        if (a != b || a != c) {
            std::cerr << "LOCKSTEP MISMATCH " << what << ": interp=" << a
                      << " tier1=" << b << " tier2=" << c << "\n";
            ok = false;
        }
    };
    check("pc", interp.cpu.pc(), tier1.cpu.pc(), tier2.cpu.pc());
    for (unsigned r = 0; r < 16; ++r) {
        check("r" + std::to_string(r), interp.cpu.reg(r), tier1.cpu.reg(r),
              tier2.cpu.reg(r));
    }
    for (std::uint16_t c = 0; c < isa::kCsrCount; ++c) {
        if (c == isa::kCsrMcycle) continue;  // step()/run_steps: no ticks.
        check("csr" + std::to_string(c), interp.cpu.csr(c), tier1.cpu.csr(c),
              tier2.cpu.csr(c));
    }
    check("instret", interp.cpu.instret(), tier1.cpu.instret(),
          tier2.cpu.instret());
    check("traps", interp.cpu.trap_count(), tier1.cpu.trap_count(),
          tier2.cpu.trap_count());
    check("heartbeats", interp.heartbeats, tier1.heartbeats,
          tier2.heartbeats);
    return ok;
}

// Memory-bound scan: the li-then-access MMIO idiom embedded firmware
// is made of, shaped so ~2/3 of dynamic instructions are loads/stores
// whose address is materialized in the same superblock. The control
// loop is ALU-bound (its delay spin dwarfs its I/O), so this is the
// second lockstep workload: it exercises the translated load/store
// checks on every iteration.
isa::Program mem_scan_program() {
    std::ostringstream os;
    os << "start:\n"
       << "    li   sp, " << platform::kStackTop << "\n"
       << "loop:\n"
       << "    li   r1, " << platform::kDataBase << "\n"
       << "    lw   r2, r1, 0\n"
       << "    lw   r3, r1, 4\n"
       << "    lw   r4, r1, 8\n"
       << "    lw   r5, r1, 12\n"
       << "    add  r2, r2, r3\n"
       << "    sw   r2, r1, 16\n"
       << "    sw   r3, r1, 20\n"
       << "    sw   r4, r1, 24\n"
       << "    sw   r5, r1, 28\n"
       << "    j    loop\n";
    return isa::assemble(os.str(), platform::kCodeBase);
}

}  // namespace

int main(int argc, char** argv) {
    // --quick: CI smoke mode; shorter timing windows, same assertions.
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const double window = quick ? 0.2 : 1.0;

    const isa::Program program = platform::control_loop_program();
    const auto image = analysis::translate_image_shared(
        program.code, program.origin, program.origin);

    // The proof artifact the admission gate would attach: how many of
    // the firmware's loads/stores the abstract interpreter proved
    // in-bounds + aligned.
    const analysis::FirmwareVerifier verifier{analysis::Policy{}};
    const analysis::Report report =
        verifier.analyze(program.code, program.origin, program.origin);
    const double proven_coverage =
        report.proofs ? report.proofs->coverage() : 0.0;

    bench::section("E15 — Guest execution throughput (control_loop)");
    std::cout << "firmware: " << program.code.size() << " bytes, "
              << image->translated_words << "/" << program.code.size() / 4
              << " words translated (coverage "
              << bench::fmt_double(image->coverage() * 100, 1)
              << "%), proven-access coverage "
              << bench::fmt_double(proven_coverage * 100, 1) << "%\n\n";

    // Lockstep first: a fast wrong engine is worthless.
    const bool lockstep_ok = verify_lockstep(program, 2'000'000);

    GuestMachine interp(program, false);
    GuestMachine tier1(program, true);
    GuestMachine tier2(program, true);
    const Throughput t0 = measure(interp, step_chunk, window);
    const Throughput t1 = measure(tier1, step_chunk, window);
    const Throughput t2 = measure(tier2, run_steps_chunk, window);

    const double speedup_step = t1.mips / t0.mips;
    const double speedup_threaded = t2.mips / t0.mips;

    bench::Table table({"engine", "driver", "guest MIPS", "speedup",
                        "translated share"});
    table.row("tier 0: interpreter", "step()", bench::fmt_double(t0.mips, 1),
              "1.00", "0%");
    table.row(
        "tier 1: translated", "step()", bench::fmt_double(t1.mips, 1),
        bench::fmt_double(speedup_step, 2),
        bench::fmt_double(
            100.0 * static_cast<double>(tier1.cpu.translated_instret()) /
                static_cast<double>(tier1.cpu.instret()),
            1) + "%");
    table.row(
        "tier 2: threaded", "run_steps()", bench::fmt_double(t2.mips, 1),
        bench::fmt_double(speedup_threaded, 2),
        bench::fmt_double(
            100.0 * static_cast<double>(tier2.cpu.translated_instret()) /
                static_cast<double>(tier2.cpu.instret()),
            1) + "%");
    table.print();

    // Second lockstep workload: a memory-bound scan.
    const isa::Program scan = mem_scan_program();
    const analysis::Report scan_report =
        verifier.analyze(scan.code, scan.origin, scan.origin);
    const double scan_coverage =
        scan_report.proofs ? scan_report.proofs->coverage() : 0.0;
    const bool scan_lockstep_ok = verify_lockstep(scan, 2'000'000);
    std::cout << "\nmemory scan: proven-access coverage "
              << bench::fmt_double(scan_coverage * 100, 1) << "%, lockstep "
              << (scan_lockstep_ok ? "identical" : "DIVERGED") << "\n";

    std::cout << "\nlockstep (2M events, all regs/CSRs/counters): "
              << (lockstep_ok ? "identical" : "DIVERGED") << "\n"
              << "Expected shape: tier 1 beats the interpreter by eliding "
                 "fetch+decode; tier 2 adds threaded dispatch and the "
                 "step()-call elision for a >=10x total speedup. The "
                 "translated share tracks coverage: only the ecall "
                 "(service call) detours through the generic executor.\n";

    bench::JsonReporter json;
    json.field("bench", "guest_execution");
    json.field("workload", "control_loop_program");
    json.metric("guest_code_bytes", static_cast<double>(program.code.size()));
    json.metric("translation_coverage", image->coverage());
    json.metric("proven_access_coverage", proven_coverage);
    json.metric("interpreter_mips", t0.mips);
    json.metric("translated_step_mips", t1.mips);
    json.metric("threaded_run_steps_mips", t2.mips);
    json.metric("speedup_translated_step", speedup_step);
    json.metric("speedup_threaded", speedup_threaded);
    json.metric("memscan_proven_access_coverage", scan_coverage);
    json.field("lockstep",
               lockstep_ok && scan_lockstep_ok ? "identical" : "diverged");

    const char* path_env = std::getenv("CRES_BENCH_JSON");
    const std::string path = path_env != nullptr ? path_env
                                                 : "BENCH_guest.json";
    if (json.write(path)) {
        std::cout << "\nwrote " << path << "\n";
    }
    return lockstep_ok && scan_lockstep_ok ? 0 : 1;
}
