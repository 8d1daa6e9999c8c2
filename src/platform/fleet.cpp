#include "platform/fleet.h"

#include "boot/image.h"
#include "crypto/hmac.h"
#include "net/attestation.h"
#include "obs/syslog.h"
#include "platform/memmap.h"
#include "util/rng.h"

namespace cres::platform {

namespace {

crypto::Hash256 fleet_vendor_seed(std::uint64_t seed) {
    Bytes s(9, 0xf1);
    for (int i = 0; i < 8; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(seed >> (8 * i));
    }
    return crypto::sha256(s);
}

/// Fleet SIEM export key: seed-derived root (distinct domain tag from
/// the vendor seed) stretched through HKDF like every device key.
Bytes fleet_siem_key(std::uint64_t seed) {
    Bytes s(9, 0x51);
    for (int i = 0; i < 8; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(seed >> (8 * i));
    }
    const crypto::Hash256 root = crypto::sha256(s);
    return crypto::hkdf(Bytes(root.begin(), root.end()), to_bytes("fleet"),
                        "siem-export", 32);
}

FleetMonitorConfig campaign_config(const FleetConfig& cfg) {
    FleetMonitorConfig out = cfg.campaign;
    out.device_count = cfg.device_count;
    return out;
}

}  // namespace

std::vector<std::size_t> SweepResult::flagged_devices() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i] != net::AttestResult::kTrusted) out.push_back(i);
    }
    return out;
}

Fleet::Fleet(FleetConfig config)
    : cfg_(std::move(config)),
      vendor_key_(fleet_vendor_seed(cfg_.seed), 6),
      pool_(cfg_.worker_threads),
      siem_key_(fleet_siem_key(cfg_.seed)),
      fleet_recorder_(cfg_.fleet_recorder_capacity),
      siem_stream_(std::make_unique<obs::SiemStream>(siem_key_)),
      monitor_(std::make_unique<FleetMonitor>(campaign_config(cfg_),
                                              fleet_metrics_,
                                              fleet_recorder_)),
      translation_cache_(std::make_shared<TranslationCache>()),
      // Built from the same (default) admission policy enrol_device
      // leaves on every NodeConfig: nodes only reuse cached reports
      // when the policies are identical (node.cpp), so a mismatch
      // here would silently demote the cache to per-node analysis.
      analysis_cache_(std::make_shared<AnalysisCache>(analysis::Policy{})),
      firmware_store_(std::make_shared<FirmwareStore>()),
      // Every device runs the same firmware: assemble it once here,
      // not once per device inside enrolment.
      program_(cfg_.interrupt_workload
                   ? interrupt_control_loop_program(cfg_.workload,
                                                    cfg_.timer_period)
                   : control_loop_program(cfg_.workload)),
      devices_(cfg_.device_count) {
    // Enrolment is sharded like every other phase: device i's entire
    // identity derives from cfg_.seed ^ i, so workers never share
    // mutable state and the fleet is bit-identical at any thread count.
    pool_.parallel_for(devices_.size(),
                       [this](std::size_t i) { enrol_device(i); });
}

Fleet::~Fleet() = default;

void Fleet::enrol_device(std::size_t index) {
    // The determinism contract: per-device seed = fleet seed ⊕ index.
    // Everything below (device root, workload jitter, attestation
    // nonces) is derived from it, never from a fleet-shared stream.
    const std::uint64_t device_seed =
        cfg_.seed ^ static_cast<std::uint64_t>(index);
    Rng rng(device_seed ^ 0xf1ee7u);

    NodeConfig node_config;
    node_config.name = "device-" + std::to_string(index);
    node_config.resilient = cfg_.resilient;
    node_config.seed = device_seed;
    node_config.metrics = cfg_.metrics;
    node_config.flight_recorder_capacity = cfg_.flight_recorder_capacity;
    node_config.siem_buffer_capacity = cfg_.siem_buffer_capacity;
    node_config.causal_tracing = cfg_.causal_tracing;
    node_config.device_index = static_cast<std::uint32_t>(index);
    node_config.quiescence = cfg_.quiescence;
    node_config.translate = cfg_.translate;
    node_config.translation_cache = translation_cache_;
    node_config.analysis_cache = analysis_cache_;
    if (cfg_.share_firmware) node_config.firmware_store = firmware_store_;

    devices_[index] = std::make_unique<Device>(
        std::move(node_config), "op-nic-" + std::to_string(index));
    Device& device = *devices_[index];
    const std::string& name = device.node.cfg.name;
    device.link.attach(device.node.nic, device.operator_nic);

    const Bytes device_root = rng.bytes(32);
    device.node.provision(vendor_key_.public_key(), device_root);
    device.seal_key =
        crypto::hkdf(device_root, to_bytes(name), "evidence-seal", 32);

    // Enrolment measurement: a per-device firmware digest.
    crypto::Hash256 fw_digest =
        crypto::sha256(to_bytes("fw-image-for-" + name));
    device.node.pcrs.extend(boot::PcrBank::kPcrFirmware, fw_digest, name);

    const Bytes attest_key =
        crypto::hkdf(device_root, to_bytes(name), "attestation", 32);
    device.verifier.emplace(device.node.pcrs.composite(), attest_key,
                            cfg_.seed ^ (0x1000 + index));

    device.node.load_and_start(program_);
    device.node.arm_resilience(program_);

    // Periodic NIC pump (attestation responder + channel demux).
    schedule_pump(device.node);
}

void Fleet::schedule_pump(Node& node) {
    node.sim.schedule_in(500, "nic-pump", [this, &node] {
        node.pump_network();
        schedule_pump(node);
    });
}

void Fleet::run(sim::Cycle cycles, sim::Cycle slice) {
    const sim::Cycle quantum = slice == 0 ? 1 : slice;
    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
        Node& node = devices_[i]->node;
        sim::Cycle done = 0;
        while (done < cycles) {
            const sim::Cycle step = std::min(quantum, cycles - done);
            node.run(step);
            done += step;
        }
    });
}

void Fleet::finalize_sweep(SweepResult& result) {
    for (const net::AttestResult verdict : result.verdicts) {
        if (verdict == net::AttestResult::kTrusted) {
            ++result.trusted;
        } else {
            ++result.flagged;
        }
    }
}

net::AttestResult Fleet::attest_device(Device& device) {
    const Bytes challenge_wire = device.verifier->challenge();
    const auto nonce = net::decode_challenge(challenge_wire);
    if (!nonce) return net::AttestResult::kMalformed;

    // The device's secure-world attestation service answers.
    const auto quote =
        device.node.tee.quote(device.node.pcrs, *nonce, "attest");
    if (!quote) {
        // Zeroised / lost key: the device cannot produce a quote at
        // all. Treat as a failed attestation.
        return net::AttestResult::kBadTag;
    }
    return device.verifier->verify(net::encode_quote(*quote));
}

SweepResult Fleet::attestation_sweep() {
    SweepResult result;
    result.verdicts.assign(devices_.size(), net::AttestResult::kMalformed);
    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
        result.verdicts[i] = attest_device(*devices_[i]);
    });
    finalize_sweep(result);
    return result;
}

SweepResult Fleet::attestation_sweep_wire(sim::Cycle timeout) {
    SweepResult result;
    result.verdicts.assign(devices_.size(), net::AttestResult::kMalformed);
    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
        Device& device = *devices_[i];
        // Challenge goes out over the link...
        device.link.inject(device.verifier->challenge(), /*to_a=*/true);
        // ...the device answers during normal operation...
        device.node.run(timeout);
        // ...and the quote frame arrives at the operator NIC.
        net::AttestResult verdict = net::AttestResult::kMalformed;
        while (auto frame = device.operator_nic.receive_frame()) {
            if (const auto quote = net::decode_quote(*frame)) {
                verdict = device.verifier->verify(*frame);
                break;
            }
            // Telemetry frames etc. are skipped, not verdicts.
        }
        result.verdicts[i] = verdict;
    });
    finalize_sweep(result);
    return result;
}

HealthSummary Fleet::collect_health() {
    // Workers report into fixed per-device slots; the summary itself
    // (including its vector<bool>, which packs bits and so cannot take
    // concurrent writes) is reduced serially in device-index order.
    struct DeviceHealth {
        core::HealthState state = core::HealthState::kHealthy;
        bool valid = false;
    };
    std::vector<DeviceHealth> per_device(devices_.size());

    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
        Device& device = *devices_[i];
        if (device.node.ssm && !device.node.ssm->disabled()) {
            const auto report = device.node.ssm->health_report();
            per_device[i].state = report.state;
            per_device[i].valid =
                core::SystemSecurityManager::verify_health_report(
                    report, device.seal_key);
        }
        // else: passive device or dead SSM — nothing attestable to say;
        // the defaults (kHealthy, invalid report) already say that.
    });

    HealthSummary summary;
    summary.states.reserve(per_device.size());
    summary.report_valid.reserve(per_device.size());
    for (const DeviceHealth& health : per_device) {
        summary.states.push_back(health.state);
        summary.report_valid.push_back(health.valid);
        if (health.valid && health.state == core::HealthState::kHealthy) {
            ++summary.healthy;
        }
    }
    return summary;
}

void Fleet::checkpoint_all() {
    pool_.parallel_for(devices_.size(), [&](std::size_t i) {
        devices_[i]->node.take_checkpoint();
    });
}

obs::MetricsRegistry Fleet::collect_metrics() const {
    obs::MetricsRegistry merged;
    std::size_t healthy = 0;
    std::uint64_t reboots = 0;
    std::uint64_t alerts = 0;
    std::uint64_t skipped = 0;
    for (const auto& device : devices_) {  // Index order: deterministic.
        // Unbound/empty registries (cfg.metrics off, or a device that
        // never registered a series) contribute nothing; count them so
        // a partial merge is visible instead of silent.
        if (device->node.metrics.size() == 0) {
            ++skipped;
        } else {
            merged.merge_from(device->node.metrics);
        }
        reboots += device->node.stats().reboots;
        alerts += device->node.stats().operator_alerts;
        if (device->node.ssm && !device->node.ssm->disabled() &&
            device->node.ssm->health() == core::HealthState::kHealthy) {
            ++healthy;
        }
    }
    // Fleet-tier series (campaign counters, detection latency) fold in
    // after the devices.
    merged.merge_from(fleet_metrics_);
    merged.set_help("cres_fleet_devices", "Enrolled devices in the estate");
    merged.set_help("cres_fleet_devices_healthy",
                    "Devices reporting kHealthy with a valid SSM");
    merged.counter("cres_fleet_merge_skipped_total").inc(skipped);
    merged.gauge("cres_fleet_devices")
        .set(static_cast<std::int64_t>(devices_.size()));
    merged.gauge("cres_fleet_devices_healthy")
        .set(static_cast<std::int64_t>(healthy));
    merged.counter("cres_fleet_iterations_total").inc(fleet_iterations());
    merged.counter("cres_fleet_reboots_total").inc(reboots);
    merged.counter("cres_fleet_operator_alerts_total").inc(alerts);
    return merged;
}

std::string Fleet::chrome_trace() const {
    obs::ChromeTrace out;
    for (const auto& device : devices_) {  // Index order: deterministic.
        device->node.append_chrome_trace(out);
    }
    if (!monitor_->campaigns().empty()) {
        const std::uint32_t pid = out.process("fleet");
        const std::uint32_t tid = out.thread(pid, "campaigns");
        for (const CampaignIncident& c : monitor_->campaigns()) {
            out.complete(pid, tid,
                         std::string(campaign_kind_name(c.kind)) + " #" +
                             std::to_string(c.id),
                         "campaign", c.first_at,
                         c.detected_at - c.first_at);
        }
    }
    return out.json();
}

std::size_t Fleet::drain_siem() {
    const std::uint64_t before = siem_stream_->records();
    for (std::size_t i = 0; i < devices_.size(); ++i) {  // Index order.
        Device& device = *devices_[i];
        Node& node = device.node;
        if (!node.siem.enabled()) continue;
        const std::vector<obs::SiemEvent> batch = node.siem.drain();
        const std::uint64_t drops = node.siem.dropped();
        if (batch.empty() && drops == device.siem_drops_reported) continue;
        const auto index = static_cast<std::uint32_t>(i);
        for (const obs::SiemEvent& event : batch) {
            siem_stream_->append(index, node.cfg.name, event);
            monitor_->observe(index, event);
        }
        // Backpressure accounting: records lost to a full staging buffer
        // since the previous drain surface as an explicit export record,
        // so a gap in the chain is attributable instead of silent.
        if (drops > device.siem_drops_reported) {
            obs::SiemEvent gap;
            gap.at = node.sim.now();
            gap.kind = obs::SiemKind::kState;
            gap.severity = obs::rfc5424::kWarning;
            gap.facility = obs::rfc5424::kFacAudit;
            gap.category = "system";
            gap.source = "siem-buffer";
            gap.resource = "staging";
            gap.detail = "dropped records since last drain";
            gap.a = drops - device.siem_drops_reported;
            gap.b = drops;
            siem_stream_->append(index, node.cfg.name, gap);
            device.siem_drops_reported = drops;
        }
        // Anchor the device's on-board evidence chain in the export so
        // the two artefacts corroborate each other offline.
        if (node.ssm) {
            siem_stream_->append_evidence_head(
                index, node.cfg.name, node.sim.now(),
                node.ssm->evidence().size(),
                to_hex(node.ssm->evidence().head()));
        }
    }
    monitor_->flush(*siem_stream_);
    return static_cast<std::size_t>(siem_stream_->records() - before);
}

std::vector<std::string> Fleet::sealed_campaign_postmortems() const {
    std::vector<std::string> out;
    const crypto::HmacSha256 sealer(siem_key_);
    for (const obs::PostmortemBundle& bundle : monitor_->postmortems()) {
        out.push_back(obs::seal_postmortem(bundle, sealer));
    }
    return out;
}

boot::FirmwareImage Fleet::make_signed_image(const std::string& name,
                                             std::uint32_t security_version) {
    boot::FirmwareImage image;
    image.name = name;
    image.security_version = security_version;
    image.load_addr = kAppRamBase;
    image.entry_point = kAppRamBase;
    image.payload = to_bytes("fw-payload-" + name);
    boot::ImageSigner(vendor_key_).sign(image);
    return image;
}

std::vector<std::string> Fleet::sealed_postmortems() const {
    std::vector<std::string> out;
    for (const auto& device : devices_) {  // Index order: deterministic.
        if (!device->node.ssm) continue;
        const std::size_t count = device->node.ssm->postmortems().size();
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(device->node.ssm->sealed_postmortem(i));
        }
    }
    return out;
}

std::uint64_t Fleet::fleet_iterations() const {
    std::uint64_t total = 0;
    for (const auto& device : devices_) {
        total += device->node.stats().control_iterations;
    }
    return total;
}

std::uint64_t Fleet::fleet_cycles_skipped() const {
    std::uint64_t total = 0;
    for (const auto& device : devices_) {
        total += device->node.sim.cycles_skipped();
    }
    return total;
}

std::size_t Fleet::fleet_resident_ram_bytes() const {
    std::size_t total = 0;
    for (const auto& device : devices_) {
        total += device->node.app_ram.resident_bytes() +
                 device->node.tee_ram.resident_bytes();
    }
    return total;
}

}  // namespace cres::platform
