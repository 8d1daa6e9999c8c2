#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>

#include "attack/campaigns.h"
#include "crypto/sha256.h"
#include "dev/sensor.h"
#include "obs/siem.h"
#include "platform/fleet.h"
#include "util/rng.h"

namespace opbench {

using namespace cres;

// --- Tracer ----------------------------------------------------------------

std::string Tracer::json() const {
    std::ostringstream os;
    os << "{\"spans\":[";
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    os << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i == 0 ? "" : ",") << "\n{\"id\":" << i
           << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
           << "\",\"start_us\":" << us(s.start)
           << ",\"dur_us\":" << us(s.end) - us(s.start) << "}";
    }
    os << "\n]}\n";
    return os.str();
}

// --- Result ----------------------------------------------------------------

void LoopTotals::close_block() {
    if (block_s > 0.0) block_rates.push_back(block_cycles / block_s);
    block_cycles = 0.0;
    block_s = 0.0;
}

void Result::check(bool ok, const std::string& what) {
    check_many(1, ok ? 0 : 1, what);
}

void Result::check_many(std::uint64_t attempted_checks,
                        std::uint64_t failed_checks,
                        const std::string& what) {
    attempted += attempted_checks;
    failed += failed_checks;
    if (failed_checks > 0 && failures.size() < 8) {
        failures.push_back(what + " (" + std::to_string(failed_checks) +
                           " of " + std::to_string(attempted_checks) + ")");
    }
}

std::string ExactCounts::describe() const {
    std::ostringstream os;
    os << "node_cycles=" << node_cycles << "\ninstret=" << instret
       << "\ntranslated_instret=" << translated_instret
       << "\nelided_ops=" << elided_ops << "\nevents_fired=" << events_fired
       << "\ncycles_skipped=" << cycles_skipped
       << "\nssm_events=" << ssm_events
       << "\nmonitor_polls=" << monitor_polls
       << "\nsiem_records=" << siem_records
       << "\nsiem_dropped=" << siem_dropped
       << "\nresident_ram_bytes=" << resident_ram_bytes
       << "\nfirmware_store_bytes=" << firmware_store_bytes
       << "\nanalysis_hits=" << analysis_hits
       << "\nanalysis_misses=" << analysis_misses
       << "\ntranslation_hits=" << translation_hits
       << "\ntranslation_misses=" << translation_misses
       << "\ncampaigns=" << campaigns;
    for (int k = 0; k < 3; ++k) {
        os << "\nlatency_cycles[" << k << "]=" << latency_cycles[k];
    }
    os << "\nestate_digest=" << estate_digest << "\nsiem_head=" << siem_head
       << "\nverdicts=" << verdicts << "\n";
    return os.str();
}

std::string proc_field(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0) continue;
        std::size_t pos = line.find(':');
        if (pos == std::string::npos) continue;
        ++pos;
        while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
            ++pos;
        }
        return line.substr(pos);
    }
    return "";
}

double peak_rss_mb() {
    const std::string hwm = proc_field("/proc/self/status", "VmHWM");
    return hwm.empty() ? 0.0 : std::stod(hwm) / 1024.0;  // kB -> MB
}

std::uint64_t total_instret(platform::Fleet& fleet) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        total += fleet.device(i).cpu.instret();
    }
    return total;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

namespace {

// --- Workload definitions --------------------------------------------------

enum class Kind { kCampaign, kEstateIdle, kControlBusy };

struct Spec {
    Kind kind;
    std::size_t devices;
    std::size_t reduced_devices;
    sim::Cycle epoch_cycles;
    /// Estate workloads: fleets built (each timed) before the last one
    /// is kept for the loop; the campaign builds one per episode.
    std::size_t setup_reps;
    /// Estate workloads: exact counts are snapshotted after this many
    /// epochs, and the loop never stops before it.
    std::size_t exact_epochs;
    std::size_t reduced_epochs;
};

Spec spec_for(const std::string& name) {
    if (name == "campaign") {
        return {Kind::kCampaign, 2000, 64, 4000, 0, 0, 0};
    }
    if (name == "estate_idle") {
        return {Kind::kEstateIdle, 10000, 256, 2000, 7, 50, 12};
    }
    return {Kind::kControlBusy, 256, 16, 2000, 7, 50, 12};
}

/// Campaign horizon: simulated cycles the loop keeps running after the
/// drain that detected the last of the three campaign kinds (covers the
/// rest of the worm's propagation and of the replay wave).
constexpr sim::Cycle kVerdictHorizon = 15000;
/// Campaign safety stop: an episode that has not produced all three
/// verdicts by then counts as failed.
constexpr sim::Cycle kCampaignCycleLimit = 200000;
/// Minimum measured epochs per run, so the p90 has >= 10 samples
/// beyond it.
constexpr std::size_t kMinEpochs = 100;
/// control_busy: every 10th epoch also sweeps.
constexpr std::size_t kHeavyEvery = 10;
/// campaign: every 8th epoch of an episode also sweeps and collects
/// health. An episode runs 8 epochs, so each episode does it once, at
/// the same simulated point, and episodes stay identical.
constexpr std::size_t kCampaignHeavyEvery = 8;
/// Untimed estate epochs before measuring (first touch of every
/// device's paged RAM and of the allocator's fresh pages).
constexpr std::size_t kWarmupEpochs = 10;
/// Estate epochs per rate block (a multiple of kHeavyEvery, so every
/// block holds the same mix of phases).
constexpr std::size_t kBlockEpochs = 10;

platform::FleetConfig fleet_config(const Spec& spec, const Options& opt) {
    platform::FleetConfig c;
    c.device_count = opt.reduced ? spec.reduced_devices : spec.devices;
    c.seed = opt.seed;
    c.worker_threads = opt.workers;
    switch (spec.kind) {
        case Kind::kCampaign:
            c.resilient = true;
            c.interrupt_workload = true;
            break;
        case Kind::kEstateIdle:
            c.resilient = false;
            c.interrupt_workload = true;
            c.metrics = false;
            c.flight_recorder_capacity = 0;
            break;
        case Kind::kControlBusy:
            c.resilient = true;
            c.interrupt_workload = false;
            break;
    }
    return c;
}

// --- The operator: every public Fleet call, timed and traced ---------------

class Operator {
public:
    Operator(Result& result, int parent) : r_(result), parent_(parent) {}

    /// Warm-up epochs run every call and every check but add nothing to
    /// the loop totals; their spans are named "warmup".
    void set_measuring(bool on) { measuring_ = on; }

    std::unique_ptr<platform::Fleet> build(const platform::FleetConfig& c) {
        const int span = r_.tracer.open("Fleet::Fleet", parent_);
        const auto t0 = Clock::now();
        auto fleet = std::make_unique<platform::Fleet>(c);
        r_.setup_s.push_back(seconds_between(t0, Clock::now()));
        r_.tracer.close(span);
        return fleet;
    }

    void run(platform::Fleet& fleet, sim::Cycle cycles, int epoch) {
        const int span = r_.tracer.open("Fleet::run", epoch);
        const auto t0 = Clock::now();
        fleet.run(cycles);
        totals().run_s += seconds_between(t0, Clock::now());
        r_.tracer.close(span);
    }

    void drain(platform::Fleet& fleet, int epoch) {
        const int span = r_.tracer.open("Fleet::drain_siem", epoch);
        const auto t0 = Clock::now();
        const std::size_t records = fleet.drain_siem();
        totals().drain_s += seconds_between(t0, Clock::now());
        r_.tracer.close(span);
        totals().drained_records += records;
    }

    void sweep(platform::Fleet& fleet, int epoch) {
        const int span = r_.tracer.open("Fleet::attestation_sweep", epoch);
        const auto t0 = Clock::now();
        const platform::SweepResult sweep = fleet.attestation_sweep();
        totals().sweep_s += seconds_between(t0, Clock::now());
        r_.tracer.close(span);
        totals().swept_devices += fleet.size();
        r_.check_many(sweep.verdicts.size(),
                      sweep.verdicts.size() - sweep.trusted,
                      "attestation verdict not trusted");
    }

    void health(platform::Fleet& fleet, int epoch) {
        const int span = r_.tracer.open("Fleet::collect_health", epoch);
        const auto t0 = Clock::now();
        const platform::HealthSummary health = fleet.collect_health();
        totals().health_s += seconds_between(t0, Clock::now());
        r_.tracer.close(span);
        totals().health_devices += fleet.size();
        if (fleet.config().resilient) {
            const auto invalid = static_cast<std::uint64_t>(
                std::count(health.report_valid.begin(),
                           health.report_valid.end(), false));
            r_.check_many(health.report_valid.size(), invalid,
                          "health report invalid");
        }
    }

    /// Opens an epoch span and returns its id with its start time.
    std::pair<int, Clock::time_point> begin_epoch() {
        return {r_.tracer.open(measuring_ ? "epoch" : "warmup", parent_),
                Clock::now()};
    }
    void end_epoch(const std::pair<int, Clock::time_point>& epoch,
                   const platform::Fleet& fleet, sim::Cycle cycles) {
        const double wall = seconds_between(epoch.second, Clock::now());
        r_.tracer.close(epoch.first);
        const double node_cycles =
            static_cast<double>(fleet.size()) * static_cast<double>(cycles);
        LoopTotals& t = totals();
        t.epoch_s.push_back(wall);
        t.loop_s += wall;
        t.node_cycles += node_cycles;
        t.block_s += wall;
        t.block_cycles += node_cycles;
    }

    void add_instret(std::uint64_t instret) { totals().instret += instret; }
    void close_block() { totals().close_block(); }

private:
    LoopTotals& totals() { return measuring_ ? r_.loop : discard_; }

    Result& r_;
    int parent_;
    bool measuring_ = true;
    LoopTotals discard_;
};

// --- Snapshots and checks --------------------------------------------------

/// Sums every series of `base` (any label set) in a Prometheus
/// exposition.
std::uint64_t sum_series(const std::string& exposition,
                         const std::string& base) {
    std::uint64_t total = 0;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, base.size(), base) != 0) continue;
        if (line.size() <= base.size()) continue;
        const char next = line[base.size()];
        if (next != ' ' && next != '{') continue;
        const std::size_t space = line.rfind(' ');
        total += std::stoull(line.substr(space + 1));
    }
    return total;
}

/// Architectural digest of the whole estate, folded in device-index
/// order: simulated time, cycle/instruction counters, service counters
/// and actuator state per device.
std::string estate_digest(platform::Fleet& fleet) {
    crypto::Sha256 h;
    Bytes word(8);
    const auto fold = [&](std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i) {
            word[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
        h.update(word);
    };
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        platform::Node& node = fleet.device(i);
        fold(node.sim.now());
        fold(node.cpu.csr(isa::kCsrMcycle));
        fold(node.cpu.csr(isa::kCsrMinstret));
        fold(node.stats().control_iterations);
        fold(node.stats().telemetry_frames);
        fold(node.sensor.samples());
        fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            dev::to_fixed(node.actuator.current()))));
        fold(node.actuator.command_count());
        fold(node.ssm ? node.ssm->evidence().size() : 0);
    }
    const crypto::Hash256 digest = h.finish();
    return to_hex(BytesView(digest.data(), digest.size()));
}

std::uint64_t kind_latency(const platform::Fleet& fleet,
                           platform::CampaignKind kind) {
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        if (c.kind == kind) return c.detected_at - c.first_at;
    }
    return 0;
}

bool all_kinds_detected(const platform::Fleet& fleet) {
    bool seen[platform::kCampaignKindCount] = {false, false, false};
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        seen[static_cast<std::size_t>(c.kind)] = true;
    }
    return seen[0] && seen[1] && seen[2];
}

ExactCounts snapshot(platform::Fleet& fleet, std::uint64_t node_cycles) {
    ExactCounts x;
    x.node_cycles = node_cycles;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        platform::Node& node = fleet.device(i);
        x.instret += node.cpu.instret();
        x.translated_instret += node.cpu.translated_instret();
        x.elided_ops += node.cpu.elided_ops();
        x.events_fired += node.sim.events_fired();
        x.siem_dropped += node.siem.dropped();
    }
    x.cycles_skipped = fleet.fleet_cycles_skipped();
    const std::string exposition = fleet.collect_metrics().prometheus();
    x.ssm_events = sum_series(exposition, "cres_ssm_events_processed_total");
    x.monitor_polls = sum_series(exposition, "cres_monitor_polls_total");
    x.siem_records = fleet.siem_stream().records();
    x.resident_ram_bytes = fleet.fleet_resident_ram_bytes();
    x.firmware_store_bytes = fleet.firmware_store().stored_bytes();
    x.analysis_hits = fleet.analysis_cache().hits();
    x.analysis_misses = fleet.analysis_cache().misses();
    x.translation_hits = fleet.translation_cache().hits();
    x.translation_misses = fleet.translation_cache().misses();
    const auto& campaigns = fleet.campaign_monitor().campaigns();
    x.campaigns = campaigns.size();
    for (std::size_t k = 0; k < platform::kCampaignKindCount; ++k) {
        x.latency_cycles[k] =
            kind_latency(fleet, static_cast<platform::CampaignKind>(k));
    }
    x.estate_digest = estate_digest(fleet);
    x.siem_head = fleet.siem_stream().head_hex();
    std::ostringstream v;
    for (const auto& c : campaigns) {
        v << platform::campaign_kind_name(c.kind) << "@" << c.first_at << "/"
          << c.detected_at << "/" << c.device_total << ";";
    }
    x.verdicts = v.str();
    return x;
}

/// End-of-run checks shared by every workload: the SIEM export chain
/// verifies offline and no staged record was dropped.
void check_stream(Result& r, platform::Fleet& fleet) {
    const obs::SiemVerifyResult verdict =
        obs::SiemStream::verify(fleet.siem_stream().jsonl(), fleet.siem_key());
    r.check(verdict.ok && verdict.records == fleet.siem_stream().records(),
            "SIEM chain verification: " + verdict.reason);
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        dropped += fleet.device(i).siem.dropped();
    }
    r.check(dropped == 0, "SIEM staging drops: " + std::to_string(dropped));
}

/// The reconstructed infection DAG equals the worm's scheduled edges.
bool provenance_exact(const platform::Fleet& fleet,
                      const attack::WormCampaign& worm) {
    const platform::ProvenanceReport& report =
        fleet.campaign_monitor().provenance();
    if (!report.traced || !report.exact ||
        report.patient_zero != worm.patient_zero() ||
        report.max_hop != worm.max_depth() ||
        report.edges.size() != worm.edges().size()) {
        return false;
    }
    const auto key = [](std::uint32_t parent, std::uint32_t child,
                        std::uint32_t hop) {
        return (std::uint64_t{parent} << 40) | (std::uint64_t{child} << 8) |
               hop;
    };
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    for (const auto& e : report.edges) {
        got.push_back(key(e.parent, e.child, e.hop));
    }
    for (const auto& e : worm.edges()) {
        want.push_back(key(e.parent, e.child, e.hop));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    return got == want;
}

// --- Workload loops ----------------------------------------------------------

/// One campaign episode: enrol, launch the three campaigns at t=0 and
/// run epochs until a fixed horizon past the last verdict. The first
/// episode of a run is the warm-up: checked, and the source of the
/// exact counts every later episode must repeat, but not timed.
void campaign_episode(const Spec& spec, const Options& opt, Result& r,
                      int workload_span, bool first) {
    Operator op(r, workload_span);
    op.set_measuring(!first);
    const platform::FleetConfig config = fleet_config(spec, opt);
    std::unique_ptr<platform::Fleet> fleet = op.build(config);

    attack::WormCampaign::Options worm_opt;
    worm_opt.patient_zero =
        static_cast<std::size_t>(Rng(opt.seed).uniform(config.device_count));
    attack::WormCampaign worm(worm_opt);
    attack::CoordinatedReplayCampaign::Options replay_opt;
    replay_opt.replay_at = 15000;
    replay_opt.stagger = 20;
    replay_opt.device_count = std::min<std::size_t>(config.device_count, 512);
    attack::CoordinatedReplayCampaign replay(replay_opt);
    attack::StaggeredDowngradeCampaign downgrade;

    const auto launched = Clock::now();
    const int launch_span = r.tracer.open("launch", workload_span);
    worm.launch(*fleet);
    replay.launch(*fleet);
    downgrade.launch(*fleet);
    r.tracer.close(launch_span);

    const std::uint64_t instret0 = total_instret(*fleet);
    sim::Cycle simulated = 0;
    sim::Cycle verdict_at = 0;
    bool verdict = false;
    for (std::size_t epoch = 0;; ++epoch) {
        const auto e = op.begin_epoch();
        op.run(*fleet, spec.epoch_cycles, e.first);
        op.drain(*fleet, e.first);
        if (!verdict && all_kinds_detected(*fleet)) {
            verdict = true;
            verdict_at = simulated + spec.epoch_cycles;
            if (!first) {
                r.verdict_s.push_back(
                    seconds_between(launched, Clock::now()));
            }
        }
        if (epoch % kCampaignHeavyEvery == kCampaignHeavyEvery - 1) {
            op.sweep(*fleet, e.first);
            op.health(*fleet, e.first);
        }
        op.end_epoch(e, *fleet, spec.epoch_cycles);
        simulated += spec.epoch_cycles;
        if (verdict && simulated >= verdict_at + kVerdictHorizon) break;
        if (simulated >= kCampaignCycleLimit) break;
    }
    op.add_instret(total_instret(*fleet) - instret0);
    op.close_block();

    const int check_span = r.tracer.open("checks", workload_span);
    r.check(verdict, "all three campaign kinds detected");
    r.check(provenance_exact(*fleet, worm),
            "worm provenance equals WormCampaign::edges()");
    check_stream(r, *fleet);
    const ExactCounts counts =
        snapshot(*fleet, config.device_count * simulated);
    if (first) {
        r.exact = counts;
        r.peak_rss_mb = opbench::peak_rss_mb();
    } else {
        r.check(counts.describe() == r.exact.describe(),
                "episode repeats the first episode exactly");
    }
    r.tracer.close(check_span);
    ++r.episodes;
}

void run_campaign(const Spec& spec, const Options& opt, Result& r,
                  int workload_span) {
    const auto start = Clock::now();
    for (std::size_t episode = 0;; ++episode) {
        campaign_episode(spec, opt, r, workload_span, episode == 0);
        if (opt.reduced) break;
        const bool enough = r.loop.epoch_s.size() >= kMinEpochs &&
                            r.episodes >= 4 &&
                            seconds_between(start, Clock::now()) >= opt.seconds;
        if (enough) break;
    }
}

/// estate_idle and control_busy: set up a few times, keep the last
/// fleet, run kWarmupEpochs untimed epochs, then measure epochs for the
/// time budget.
void run_estate(const Spec& spec, const Options& opt, Result& r,
                int workload_span) {
    Operator op(r, workload_span);
    op.set_measuring(false);
    const platform::FleetConfig config = fleet_config(spec, opt);
    std::unique_ptr<platform::Fleet> fleet;
    const std::size_t reps = opt.reduced ? 1 : spec.setup_reps;
    for (std::size_t i = 0; i < reps; ++i) {
        fleet.reset();
        fleet = op.build(config);
    }

    const std::size_t exact_epochs =
        opt.reduced ? spec.reduced_epochs : spec.exact_epochs;
    const auto start = Clock::now();
    std::uint64_t instret0 = 0;
    for (std::size_t epoch = 0;; ++epoch) {
        if (epoch == kWarmupEpochs) {
            op.set_measuring(true);
            instret0 = total_instret(*fleet);
        }
        const auto e = op.begin_epoch();
        op.run(*fleet, spec.epoch_cycles, e.first);
        if (spec.kind == Kind::kEstateIdle) {
            op.sweep(*fleet, e.first);
        } else {
            op.health(*fleet, e.first);
            if (epoch % kHeavyEvery == kHeavyEvery - 1) {
                op.sweep(*fleet, e.first);
            }
        }
        op.end_epoch(e, *fleet, spec.epoch_cycles);

        const std::size_t done = epoch + 1;
        if (done % kBlockEpochs == 0) op.close_block();
        if (done == exact_epochs) {
            const int span = r.tracer.open("snapshot", workload_span);
            r.exact = snapshot(*fleet, config.device_count *
                                           spec.epoch_cycles * done);
            r.peak_rss_mb = opbench::peak_rss_mb();
            r.tracer.close(span);
        }
        if (opt.reduced) {
            if (done >= exact_epochs) break;
        } else if (done >= exact_epochs &&
                   r.loop.epoch_s.size() >= kMinEpochs &&
                   seconds_between(start, Clock::now()) >= opt.seconds) {
            break;
        }
    }
    op.add_instret(total_instret(*fleet) - instret0);

    const int span = r.tracer.open("checks", workload_span);
    (void)fleet->drain_siem();
    check_stream(r, *fleet);
    r.tracer.close(span);
    r.episodes = 1;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"campaign", "estate_idle",
                                                "control_busy"};
    return names;
}

bool known_workload(const std::string& name) {
    const auto& names = workload_names();
    return std::find(names.begin(), names.end(), name) != names.end();
}

Result run_workload(const Options& opt) {
    const Spec spec = spec_for(opt.workload);
    Result r;
    r.tracer = Tracer(opt.trace);
    r.devices = opt.reduced ? spec.reduced_devices : spec.devices;
    r.epoch_cycles = spec.epoch_cycles;
    const int workload_span = r.tracer.open("workload", -1);
    if (spec.kind == Kind::kCampaign) {
        run_campaign(spec, opt, r, workload_span);
    } else {
        run_estate(spec, opt, r, workload_span);
    }
    r.tracer.close(workload_span);
    return r;
}

}  // namespace opbench
