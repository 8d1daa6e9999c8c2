// opbench — the CRES operator benchmark.
//
//   opbench --workload <campaign|estate_idle|control_busy> --seed <n>
//           --seconds <s> --trace <0|1> [--commit <id>] [--trace-out <path>]
//   opbench --selftest
//
// Prints a provenance line, a report line (every metric of
// opbench/METRICS.md, including the exact counts and the error rate),
// and as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. Exits 1 on a usage error or when the self-test fails.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opbench_provenance.h"
#include "platform/node.h"
#include "workloads.h"

namespace {

using namespace opbench;

std::size_t nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

bool optimised_build() {
    const std::string flags = OPBENCH_CXX_FLAGS;
    return flags.find("-O2") != std::string::npos ||
           flags.find("-O3") != std::string::npos;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += (i == 0 ? "" : ", ") + quoted(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    }
    return out + "}";
}

std::vector<Metric> end_to_end(const Result& r) {
    return {
        {"setup_s", quantile(r.setup_s, 0.5), "s"},
        {"node_cycles_per_s", quantile(r.loop.block_rates, 0.5), "1/s"},
        {"epoch_ms_p50", quantile(r.loop.epoch_s, 0.5) * 1e3, "ms"},
        {"epoch_ms_p90", quantile(r.loop.epoch_s, 0.9) * 1e3, "ms"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
    };
}

/// Metrics defined only where the workload drains campaigns, plus the
/// error rate; reported on the report line, not on the result line.
std::vector<Metric> campaign_metrics(const Result& r) {
    std::uint64_t worst = 0;
    for (const std::uint64_t l : r.exact.latency_cycles) {
        worst = std::max(worst, l);
    }
    return {
        {"verdict_s", quantile(r.verdict_s, 0.5), "s"},
        {"siem_records_per_s",
         ratio(static_cast<double>(r.loop.drained_records), r.loop.drain_s),
         "1/s"},
        {"detect_latency_cycles", static_cast<double>(worst), "cycles"},
    };
}

/// Host time inside each Fleet call issued from an epoch, by span name,
/// plus the epochs' own self time under "epoch".
std::map<std::string, double> epoch_phase_seconds(const Tracer& tracer) {
    const auto& spans = tracer.spans();
    std::map<std::string, double> out;
    for (const Tracer::Span& s : spans) {
        const double d = seconds_between(s.start, s.end);
        if (s.name == "epoch") {
            out["epoch"] += d;
        } else if (s.parent >= 0 &&
                   spans[static_cast<std::size_t>(s.parent)].name ==
                       "epoch") {
            out[s.name] += d;
            out["epoch"] -= d;
        }
    }
    return out;
}

std::vector<Metric> per_layer(const Result& r,
                              const std::vector<LedgerRow>& ledger) {
    const ExactCounts& x = r.exact;
    auto phases = epoch_phase_seconds(r.tracer);
    const LoopTotals& t = r.loop;
    const double loop = t.loop_s;
    const double devices = static_cast<double>(r.devices);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::vector<Metric> campaign = campaign_metrics(r);

    std::vector<Metric> out = {
        {"platform.run_share", ratio(phases["Fleet::run"], loop), "ratio"},
        {"platform.drain_share", ratio(phases["Fleet::drain_siem"], loop),
         "ratio"},
        {"platform.sweep_share",
         ratio(phases["Fleet::attestation_sweep"], loop), "ratio"},
        {"platform.health_share", ratio(phases["Fleet::collect_health"], loop),
         "ratio"},
        {"platform.epoch_self_share", ratio(phases["epoch"], loop), "ratio"},
        {"platform.drain_ns_per_record",
         ratio(t.drain_s * 1e9, count(t.drained_records)), "ns"},
        {"platform.sweep_us_per_device",
         ratio(t.sweep_s * 1e6, count(t.swept_devices)), "us"},
        {"platform.health_us_per_device",
         ratio(t.health_s * 1e6, count(t.health_devices)), "us"},
        {"platform.enrol_us_per_device",
         ratio(quantile(r.setup_s, 0.5) * 1e6, devices), "us"},
        {"platform.campaigns", count(x.campaigns), "count"},
        {"platform.worm_latency_cycles", count(x.latency_cycles[0]), "cycles"},
        {"platform.replay_latency_cycles", count(x.latency_cycles[1]),
         "cycles"},
        {"platform.downgrade_latency_cycles", count(x.latency_cycles[2]),
         "cycles"},
        {"platform.verdict_s", campaign[0].value, "s"},
        {"platform.siem_records_per_s", campaign[1].value, "1/s"},
        {"platform.detect_latency_cycles", campaign[2].value, "cycles"},
        {"sim.ns_per_node_cycle", ratio(t.run_s * 1e9, t.node_cycles), "ns"},
        {"sim.skip_fraction",
         ratio(count(x.cycles_skipped), count(x.node_cycles)), "ratio"},
        {"sim.events_fired", count(x.events_fired), "count"},
        {"isa.ns_per_instr", ratio(t.run_s * 1e9, count(t.instret)),
         "ns"},
        {"isa.instret", count(x.instret), "count"},
        {"isa.translated_share",
         ratio(count(x.translated_instret), count(x.instret)), "ratio"},
        {"isa.elided_ops", count(x.elided_ops), "count"},
        {"core.ssm_events", count(x.ssm_events), "count"},
        {"core.monitor_polls", count(x.monitor_polls), "count"},
        {"obs.siem_records", count(x.siem_records), "count"},
        {"obs.siem_dropped", count(x.siem_dropped), "count"},
        {"mem.resident_ram_bytes_per_device",
         ratio(count(x.resident_ram_bytes), devices), "B"},
        {"mem.firmware_store_bytes", count(x.firmware_store_bytes), "B"},
        {"mem.node_object_bytes", count(sizeof(cres::platform::Node)), "B"},
        {"analysis.cache_hits", count(x.analysis_hits), "count"},
        {"analysis.cache_misses", count(x.analysis_misses), "count"},
        {"translation.cache_hits", count(x.translation_hits), "count"},
        {"translation.cache_misses", count(x.translation_misses), "count"},
    };
    for (const LedgerRow& row : ledger) {
        out.push_back({row.name, row.ns_per_instr, "ns"});
    }
    out.push_back(
        {"trace.node_cycles_per_s", quantile(r.loop.block_rates, 0.5), "1/s"});
    out.push_back({"trace.spans", count(r.tracer.spans().size()), "count"});
    return out;
}

std::string provenance_json(const Options& opt, const std::string& commit) {
    std::ostringstream os;
    os << "{\"provenance\": {\"compiler\": " << quoted(OPBENCH_COMPILER)
       << ", \"build_type\": " << quoted(OPBENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << quoted(OPBENCH_CXX_FLAGS)
       << ", \"optimised\": " << (optimised_build() ? "true" : "false")
       << ", \"nproc\": " << nproc() << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"cpu_model\": "
       << quoted(proc_field("/proc/cpuinfo", "model name"))
       << ", \"workers\": " << opt.workers << ", \"workload\": "
       << quoted(opt.workload) << ", \"seed\": " << opt.seed
       << ", \"seconds\": " << number(opt.seconds)
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"commit\": " << quoted(commit) << "}}";
    return os.str();
}

std::string report_json(const Result& r) {
    std::vector<Metric> all = end_to_end(r);
    for (Metric& m : campaign_metrics(r)) all.push_back(std::move(m));
    all.push_back({"peak_rss_end_mb", peak_rss_mb(), "MB"});
    all.push_back({"error_rate",
                   ratio(static_cast<double>(r.failed),
                         static_cast<double>(r.attempted)),
                   "ratio"});
    std::ostringstream os;
    os << "{\"report\": {\"devices\": " << r.devices
       << ", \"epoch_cycles\": " << r.epoch_cycles
       << ", \"epochs\": " << r.loop.epoch_s.size()
       << ", \"episodes\": " << r.episodes
       << ", \"setup_samples\": " << r.setup_s.size()
       << ", \"metrics\": " << metrics_json(all) << ", \"exact\": {";
    std::istringstream lines(r.exact.describe());
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
        const std::size_t eq = line.find('=');
        os << (first ? "" : ", ") << quoted(line.substr(0, eq)) << ": "
           << quoted(line.substr(eq + 1));
        first = false;
    }
    os << "}, \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
        os << (i == 0 ? "" : ", ") << quoted(r.failures[i]);
    }
    os << "]}}";
    return os.str();
}

/// Determinism self-test: every workload at reduced size, at 1 worker
/// and twice at min(4, nproc) workers. All three runs must pass their
/// checks and agree on every exact count, the estate digest, the SIEM
/// head and the campaign verdicts.
int selftest() {
    const std::size_t wide = std::min<std::size_t>(4, nproc());
    bool ok = true;
    for (const std::string& name : workload_names()) {
        bool passed = true;
        std::vector<std::string> described;
        for (const std::size_t workers : {std::size_t{1}, wide, wide}) {
            Options opt;
            opt.workload = name;
            opt.seed = 7;
            opt.workers = workers;
            opt.reduced = true;
            const Result r = run_workload(opt);
            if (r.failed != 0 || r.attempted == 0) {
                passed = false;
                std::cout << "FAIL " << name << " at " << workers
                          << " workers: " << r.failed << " of " << r.attempted
                          << " checks failed\n";
                for (const auto& f : r.failures) std::cout << "  " << f << "\n";
            }
            described.push_back(r.exact.describe());
        }
        for (std::size_t i = 1; i < described.size(); ++i) {
            if (described[i] != described[0]) {
                passed = false;
                std::cout << "FAIL " << name << ": run " << i
                          << " differs from the 1-worker run\n--- 1 worker\n"
                          << described[0] << "--- run " << i << "\n"
                          << described[i];
            }
        }
        std::cout << (passed ? "ok   " : "FAIL ") << name << " (1 vs "
                  << wide << " workers, twice)\n";
        ok = ok && passed;
    }
    return ok ? 0 : 1;
}

int usage(const std::string& why) {
    std::cerr << "opbench: " << why
              << "\nusage: opbench --workload <campaign|estate_idle|"
                 "control_busy> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>] [--trace-out <path>]\n"
                 "       opbench --selftest\n";
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    opt.workers = std::min<std::size_t>(4, nproc());
    std::string commit = "unknown";
    std::string trace_out;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") return selftest();
        if (i + 1 >= argc) return usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = value == "1";
            } else if (arg == "--commit") {
                commit = value;
            } else if (arg == "--trace-out") {
                trace_out = value;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception&) {
            return usage("bad value for " + arg);
        }
    }
    if (!have_workload || !known_workload(opt.workload)) {
        return usage("unknown or missing workload");
    }

    std::cout << provenance_json(opt, commit) << std::endl;
    if (!optimised_build()) {
        std::cerr << "opbench: WARNING: not an optimised build ("
                  << OPBENCH_BUILD_TYPE << ", flags '" << OPBENCH_CXX_FLAGS
                  << "'); timings are flagged, not comparable\n";
    }

    const Result r = run_workload(opt);
    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = per_layer(r, run_ledger(opt.seed));
        if (!trace_out.empty()) {
            std::ofstream(trace_out) << r.tracer.json();
        }
    } else {
        metrics = end_to_end(r);
    }
    std::cout << report_json(r) << std::endl;
    std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return 0;
}
