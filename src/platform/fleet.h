// Fleet management: the operator backend for a population of deployed
// devices — the "next-generation critical infrastructure" setting of
// the paper's title. The backend provisions per-device keys, runs
// periodic remote-attestation sweeps, collects signed SSM health
// reports, and localises compromised devices so field response can be
// targeted instead of fleet-wide.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dev/nic.h"
#include "net/attestation.h"
#include "obs/siem.h"
#include "platform/firmware_store.h"
#include "platform/fleet_monitor.h"
#include "platform/node.h"
#include "platform/workload.h"
#include "util/thread_pool.h"

namespace cres::platform {

struct FleetConfig {
    std::size_t device_count = 8;
    bool resilient = true;
    std::uint64_t seed = 1;
    ControlLoopOptions workload;

    /// Interrupt-driven (WFI) control loop instead of the busy-wait
    /// one: the idiomatic embedded structure, and the configuration
    /// where quiescence fast-forwarding pays — cores sleep between
    /// timer interrupts. `timer_period` paces the control step.
    bool interrupt_workload = false;
    std::uint32_t timer_period = 800;

    /// Event-kernel quiescence on every device (docs/SCHEDULER.md).
    /// Purely a speed knob: results are bit-identical with it off —
    /// the E13d differential tests enforce exactly that.
    bool quiescence = true;

    /// Share firmware bytes fleet-wide, copy-on-write (docs/FLEET.md
    /// "memory diet"): every node's app RAM reads code from one
    /// immutable store entry keyed by image hash. Off = each node
    /// holds a private copy (the E13d memory ablation).
    bool share_firmware = true;

    /// Per-node observability cost knobs, forwarded to NodeConfig.
    /// Large passive estates turn both down to hit bytes-per-node.
    bool metrics = true;
    std::size_t flight_recorder_capacity = 2048;

    /// Per-node SIEM staging-buffer slots (forwarded to NodeConfig).
    /// drain_siem() empties them; overflow between drains lands in
    /// cres_siem_dropped_total. 0 disables the export layer per node.
    std::size_t siem_buffer_capacity = 256;

    /// Cross-device causal tracing (forwarded to NodeConfig): every
    /// node's SecureChannel stamps/propagates trace contexts, and the
    /// campaign monitor reconstructs the exact infection DAG from them
    /// (docs/OBSERVABILITY.md "Causal tracing & provenance"). Off =
    /// v1 frames on the wire and union-find-only worm correlation.
    bool causal_tracing = true;

    /// Campaign-correlation thresholds (docs/OBSERVABILITY.md). The
    /// device_count field is ignored — the fleet fills it in.
    FleetMonitorConfig campaign;

    /// Fleet-level flight-recorder slots (campaign black box).
    std::size_t fleet_recorder_capacity = 1024;

    /// Worker threads for fleet phases (enrolment, run, sweeps, health
    /// collection). 0 = hardware concurrency; 1 = serial. Any value
    /// produces bit-identical verdicts, health summaries and evidence
    /// logs: each device-node is owned by exactly one worker per phase,
    /// per-device seeds derive from `seed ^ device_index`, and all
    /// reductions happen in device-index order.
    std::size_t worker_threads = 1;

    /// Guest-code superblock translation (docs/EXECUTION.md). The whole
    /// fleet shares one read-only translation per firmware image (all
    /// devices run the same measured workload); per-device execution
    /// state stays private, so determinism is unaffected. Off = every
    /// device interprets — the E13c ablation baseline.
    bool translate = true;
};

/// One attestation sweep across the fleet.
struct SweepResult {
    std::vector<net::AttestResult> verdicts;  ///< Per device.
    std::size_t trusted = 0;
    std::size_t flagged = 0;

    [[nodiscard]] std::vector<std::size_t> flagged_devices() const;
};

/// One health-report collection across the fleet.
struct HealthSummary {
    std::vector<core::HealthState> states;   ///< Per device.
    std::vector<bool> report_valid;          ///< Signature verified.
    std::size_t healthy = 0;
};

class Fleet {
public:
    explicit Fleet(FleetConfig config);
    ~Fleet();

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    [[nodiscard]] std::size_t size() const noexcept {
        return devices_.size();
    }
    [[nodiscard]] const FleetConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] Node& device(std::size_t index) {
        return devices_.at(index)->node;
    }

    /// The wire between device `index` and its operator endpoint
    /// (attack models inject campaign traffic through it).
    [[nodiscard]] dev::Link& link(std::size_t index) {
        return devices_.at(index)->link;
    }

    /// Concurrency actually in use (config.worker_threads resolved, so
    /// 0 has become the hardware thread count).
    [[nodiscard]] std::size_t worker_threads() const noexcept {
        return pool_.thread_count();
    }

    /// The fleet-shared firmware-keyed translation cache.
    [[nodiscard]] const TranslationCache& translation_cache() const noexcept {
        return *translation_cache_;
    }

    /// The fleet-shared firmware-keyed analysis-report cache: one
    /// abstract-interpretation artifact per distinct firmware, shared
    /// by every device's admission gate and translator.
    [[nodiscard]] const AnalysisCache& analysis_cache() const noexcept {
        return *analysis_cache_;
    }

    /// The fleet-shared firmware byte store (one entry per distinct
    /// image; the whole estate's code bytes live here when
    /// cfg.share_firmware).
    [[nodiscard]] const FirmwareStore& firmware_store() const noexcept {
        return *firmware_store_;
    }

    /// Total cycles elided by quiescence fast-forwarding across the
    /// fleet (0 when cfg.quiescence is off) and total private RAM pages
    /// materialized — the two headline E13d telemetry series.
    [[nodiscard]] std::uint64_t fleet_cycles_skipped() const;
    [[nodiscard]] std::size_t fleet_resident_ram_bytes() const;

    /// Advances every device's simulation by `cycles`, sharded across
    /// the worker pool (each node's simulator is thread-confined to one
    /// worker for the whole call). Devices exchange traffic only with
    /// their own operator endpoint, so per-device state is independent
    /// of scheduling; `slice` bounds the quantum each device advances
    /// per inner step (kept for causality if devices ever talk to each
    /// other directly).
    void run(sim::Cycle cycles, sim::Cycle slice = 1000);

    /// Challenges every device and verifies its quote against the
    /// golden measurement captured at enrolment. The direct variant
    /// calls the device's attestation service in-process; the wire
    /// variant sends the challenge over the M2M link and waits for the
    /// quote frame to come back (`timeout` simulated cycles/device).
    SweepResult attestation_sweep();
    SweepResult attestation_sweep_wire(sim::Cycle timeout = 4000);

    /// Collects and verifies each device's signed SSM health report
    /// (passive devices report kHealthy with report_valid=false — they
    /// simply have nothing trustworthy to say).
    HealthSummary collect_health();

    /// Takes a known-good checkpoint on every device (call after the
    /// running-in period so recovery has something to restore).
    void checkpoint_all();

    /// Total control iterations across the fleet (service metric).
    [[nodiscard]] std::uint64_t fleet_iterations() const;

    /// Merged fleet-wide metrics snapshot: every device registry folded
    /// in device-index order (so the result is bit-identical at any
    /// worker_threads), plus fleet-level gauges (device count, healthy
    /// devices, fleet iterations). Serial by design — it is a reduction,
    /// not a phase.
    [[nodiscard]] obs::MetricsRegistry collect_metrics() const;

    /// Fleet-wide Chrome Trace artefact: every device's timeline
    /// appended in device-index order (one process track per device),
    /// so the JSON is bit-identical at any worker_threads. Serial by
    /// design — it is a reduction, not a phase.
    [[nodiscard]] std::string chrome_trace() const;

    /// Every sealed postmortem bundle across the fleet, in device-index
    /// then incident order (bit-identical at any worker_threads).
    [[nodiscard]] std::vector<std::string> sealed_postmortems() const;

    // --- SIEM export & campaign correlation --------------------------------
    /// Drains every device's SIEM staging buffer into the export stream
    /// in device-index order, feeds each record to the campaign
    /// correlation engine, anchors each contributing device's evidence
    /// head and flushes newly detected campaigns. Serial by design — it
    /// is a reduction, so the stream and the campaign verdicts are
    /// bit-identical at any worker_threads. Returns the records
    /// appended by this drain.
    std::size_t drain_siem();

    /// The fleet export stream (JSONL + syslog framings, hash-chained).
    [[nodiscard]] const obs::SiemStream& siem_stream() const noexcept {
        return *siem_stream_;
    }

    /// The HKDF-derived fleet export key — what an offline verifier
    /// (cres_siemtail) needs to check the stream chain.
    [[nodiscard]] const Bytes& siem_key() const noexcept {
        return siem_key_;
    }

    /// The cross-device campaign correlation engine.
    [[nodiscard]] const FleetMonitor& campaign_monitor() const noexcept {
        return *monitor_;
    }

    /// Fleet-level campaign postmortems, sealed under the SIEM export
    /// key (campaign order, bit-identical at any worker_threads).
    [[nodiscard]] std::vector<std::string> sealed_campaign_postmortems()
        const;

    /// Convenience for update-channel experiments: a vendor-signed
    /// firmware image carrying `security_version` (each call consumes
    /// one Merkle signature slot — sign once, install everywhere).
    [[nodiscard]] boot::FirmwareImage make_signed_image(
        const std::string& name, std::uint32_t security_version);

private:
    /// One allocation per enrolled device: the node and its operator
    /// endpoint live inline (a million-node estate previously paid four
    /// heap blocks plus pointer-chase indirection per device).
    struct Device {
        Device(NodeConfig node_config, std::string nic_name)
            : node(std::move(node_config)),
              operator_nic(std::move(nic_name)) {}

        Node node;
        dev::Nic operator_nic;
        dev::Link link;
        std::optional<net::AttestationVerifier> verifier;
        Bytes seal_key;  ///< For verifying health reports.
        /// Drops already surfaced in the export stream (drain_siem
        /// publishes only the delta since the previous drain).
        std::uint64_t siem_drops_reported = 0;
    };

    void schedule_pump(Node& node);
    /// Builds devices_[index] (enrolment: keys, golden measurement,
    /// workload). Thread-confined to one worker; deterministic because
    /// everything derives from `cfg_.seed ^ index`.
    void enrol_device(std::size_t index);
    /// Challenge/verify one device in-process (no wire).
    [[nodiscard]] net::AttestResult attest_device(Device& device);
    /// Index-ordered reduction of per-device verdicts into the counts.
    static void finalize_sweep(SweepResult& result);

    FleetConfig cfg_;
    crypto::MerkleSigner vendor_key_;
    ThreadPool pool_;
    Bytes siem_key_;
    /// Fleet-tier observability (campaign metrics/black box) — merged
    /// after the per-device registries in collect_metrics().
    obs::MetricsRegistry fleet_metrics_;
    obs::FlightRecorder fleet_recorder_;
    std::unique_ptr<obs::SiemStream> siem_stream_;
    std::unique_ptr<FleetMonitor> monitor_;
    std::shared_ptr<TranslationCache> translation_cache_;
    std::shared_ptr<AnalysisCache> analysis_cache_;
    std::shared_ptr<FirmwareStore> firmware_store_;
    /// Assembled once per fleet — every device runs the same firmware,
    /// so per-device assembly is pure enrolment overhead at scale.
    isa::Program program_;
    std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace cres::platform
