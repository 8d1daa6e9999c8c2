#include "platform/node.h"

#include "analysis/translate.h"
#include "crypto/hmac.h"
#include "net/attestation.h"
#include "util/error.h"

namespace cres::platform {

Node::Node(NodeConfig config)
    : cfg(std::move(config)),
      recorder(cfg.flight_recorder_capacity),
      siem(cfg.siem_buffer_capacity),
      app_ram("app_ram", kAppRamSize),
      tee_ram("tee_ram", kTeeRamSize),
      uart("uart"),
      timer("timer"),
      watchdog("wdog"),
      dma("dma", bus),
      sensor("sensor",
             [nominal = cfg.sensor_nominal](sim::Cycle c) {
                 // Gentle physical drift around the nominal value.
                 return nominal +
                        2.0 * static_cast<double>((c / 1000) % 5) / 5.0;
             },
             100),
      actuator("actuator", -100.0, 100.0),
      nic("nic"),
      trng("trng", cfg.seed ^ 0x74726e67u),
      power("power", 3.3, 45.0),
      cpu("cpu0", bus),
      tee(bus, kTeeRamBase, kTeeRamSize) {
    build_memory_map();
    sim.set_quiescence(cfg.quiescence);
    if (cfg.metrics) trace.bind_metrics(metrics);

    sim.add_tickable(&cpu);
    sim.add_tickable(&timer);
    sim.add_tickable(&watchdog);
    sim.add_tickable(&dma);
    sim.add_tickable(&sensor);
    sim.add_tickable(&actuator);
    sim.add_tickable(&power);

    auto raiser = [this](unsigned line) { cpu.raise_irq(line); };
    timer.connect_irq(raiser, kIrqTimer);
    watchdog.connect_irq(raiser, kIrqWatchdog);
    nic.connect_irq(raiser, kIrqNic);
    dma.connect_irq(raiser, kIrqDma);
    uart.connect_irq(raiser, kIrqUart);

    // The passive platform's only countermeasure: reboot on watchdog.
    watchdog.set_expiry_callback([this] { reboot("watchdog expiry"); });

    install_os_services();

    if (cfg.lockstep) {
        shadow_bus = std::make_unique<mem::Bus>();
        shadow_ram = std::make_unique<mem::Ram>("shadow_ram", kAppRamSize);
        shadow_bus->map(mem::RegionConfig{"app_ram", kAppRamBase,
                                          kAppRamSize, false, false},
                        *shadow_ram);
        mirror = std::make_unique<PeripheralMirror>();
        shadow_bus->map(mem::RegionConfig{"mirror", kUartBase, 0x10000,
                                          false, false},
                        *mirror);
        bus.add_observer(mirror.get());
        shadow_cpu = std::make_unique<isa::Cpu>("cpu0-shadow", *shadow_bus);
        // OS services are side-effect-free on the shadow.
        shadow_cpu->set_ecall_handler(
            [](isa::Cpu&, std::uint16_t) { return true; });
        sim.add_tickable(shadow_cpu.get());
    }

    if (cfg.resilient) {
        recovery = std::make_unique<core::RecoveryManager>(cpu, app_ram);
        degradation = std::make_unique<core::DegradationManager>();
        degradation->register_service(
            "telemetry", /*critical=*/false,
            [this](bool on) { telemetry_enabled_ = on; });
        degradation->register_service("control-loop", /*critical=*/true,
                                      [](bool) {});
        build_security_engine(to_bytes("factory-default-seal-key"));
    }
}

Node::~Node() = default;

void Node::build_memory_map() {
    bus.map(mem::RegionConfig{"app_ram", kAppRamBase, kAppRamSize, false,
                              false},
            app_ram);
    bus.map(mem::RegionConfig{"tee_ram", kTeeRamBase, kTeeRamSize,
                              /*secure_only=*/true, false},
            tee_ram);
    bus.map(mem::RegionConfig{"uart", kUartBase, kPeriphSize, false, false},
            uart);
    bus.map(mem::RegionConfig{"timer", kTimerBase, kPeriphSize, false, false},
            timer);
    bus.map(mem::RegionConfig{"wdog", kWdogBase, kPeriphSize, false, false},
            watchdog);
    bus.map(mem::RegionConfig{"dma", kDmaBase, kPeriphSize, false, false},
            dma);
    bus.map(mem::RegionConfig{"sensor", kSensorBase, kPeriphSize, false,
                              false},
            sensor);
    bus.map(mem::RegionConfig{"actuator", kActuatorBase, kPeriphSize, false,
                              false},
            actuator);
    bus.map(mem::RegionConfig{"nic", kNicBase, kPeriphSize, false, false},
            nic);
    bus.map(mem::RegionConfig{"trng", kTrngBase, kPeriphSize,
                              /*secure_only=*/true, false},
            trng);
    bus.map(mem::RegionConfig{"power", kPowerBase, kPeriphSize, false, false},
            power);
}

void Node::install_os_services() {
    cpu.set_ecall_handler([this](isa::Cpu& core, std::uint16_t service) {
        switch (service) {
            case kSvcHeartbeat:
                ++stats_.control_iterations;
                if (timing_monitor) timing_monitor->heartbeat("control-loop");
                trace.emit(sim.now(), "os", "heartbeat");
                return true;
            case kSvcPutc: {
                std::uint32_t io = core.reg(1) & 0xff;
                (void)bus.access(mem::BusOp::kWrite, kUartBase, 4, io,
                                 mem::BusAttr{mem::Master::kCpu, core.secure(),
                                              core.privileged()});
                return true;
            }
            case kSvcTelemetry: {
                if (telemetry_enabled_ && channel && nic.linked()) {
                    const std::uint32_t v = core.reg(1);
                    Bytes payload(4);
                    for (int i = 0; i < 4; ++i) {
                        payload[static_cast<std::size_t>(i)] =
                            static_cast<std::uint8_t>(v >> (8 * i));
                    }
                    channel->send(payload);
                    ++stats_.telemetry_frames;
                    if (channel->tracing() && recorder.capacity() > 0) {
                        // Flow endpoint: a send that continues an
                        // inbound causal chain (hop > 0) pairs with the
                        // receiver's "net-recv" record (same span id)
                        // as a Perfetto flow arrow. Root sends (plain
                        // operator telemetry) stay off the ring.
                        const net::TraceContext& t =
                            channel->last_sent_trace();
                        if (t.hop > 0) {
                            recorder.record_slow(
                                sim.now(), "net", "net-send", /*severity=*/0,
                                obs::FlightRecordType::kInstant, t.span_id,
                                (std::uint64_t{t.origin_device} << 32) |
                                    t.hop,
                                {});
                        }
                    }
                }
                return true;
            }
            case kSvcYield:
                return true;
            default:
                return false;  // Architectural trap.
        }
    });
}

std::string Node::default_policy() {
    return R"(
; Default cyber-resilience policy: category -> response strategy.
rule cf-hijack:     category=control-flow severity>=critical -> restore-checkpoint, alert-operator
rule code-tamper:   category=memory severity>=critical -> restore-checkpoint, alert-operator
rule exfiltration:  category=data-flow severity>=critical -> isolate-resource, zeroise-keys, alert-operator
rule mem-recon:     category=memory severity>=alert count=2 window=20000 -> alert-operator
rule config-drift:  category=bus-violation severity>=critical -> isolate-resource, alert-operator
rule bus-probing:   category=bus-violation severity>=alert count=3 window=5000 -> alert-operator
rule periph-unsafe: category=peripheral severity>=critical cooldown=5000 -> rate-limit, degrade, alert-operator
rule periph-odd:    category=peripheral severity>=alert count=3 window=20000 cooldown=10000 -> degrade, alert-operator
rule net-mitm:      category=network severity>=critical -> alert-operator
rule net-replay:    category=network severity>=alert cooldown=20000 -> alert-operator
rule task-stall:    category=timing severity>=alert -> restore-checkpoint, alert-operator
rule env-glitch:    category=environment severity>=alert -> alert-operator
)";
}

void Node::build_security_engine(Bytes seal_key) {
    // Detach previous tickable monitors (no-ops on first build).
    if (ssm) sim.remove_tickable(ssm.get());
    if (peripheral_monitor) sim.remove_tickable(peripheral_monitor.get());
    if (timing_monitor) sim.remove_tickable(timing_monitor.get());
    if (environment_monitor) sim.remove_tickable(environment_monitor.get());
    if (config_monitor) sim.remove_tickable(config_monitor.get());

    core::SsmConfig ssm_config;
    ssm_config.physically_isolated = cfg.ssm_isolated;
    ssm_config.poll_interval = cfg.ssm_poll_interval;
    ssm_config.seal_key = std::move(seal_key);
    ssm_config.device_name = cfg.name;
    ssm = std::make_unique<core::SystemSecurityManager>(sim, ssm_config);

    bus_monitor = std::make_unique<core::BusMonitor>(*ssm, sim, bus);
    cfi_monitor = std::make_unique<core::CfiMonitor>(*ssm, sim, cpu);
    memory_monitor = std::make_unique<core::MemoryMonitor>(*ssm, sim, bus);
    dift_monitor = std::make_unique<core::DiftMonitor>(*ssm, sim, bus);
    peripheral_monitor =
        std::make_unique<core::PeripheralMonitor>(*ssm, sim, bus);
    timing_monitor = std::make_unique<core::TimingMonitor>(*ssm, sim);
    network_monitor = std::make_unique<core::NetworkMonitor>(*ssm, sim);
    environment_monitor = std::make_unique<core::EnvironmentMonitor>(
        *ssm, sim, power, core::EnvironmentEnvelope{3.0, 3.6, -20.0, 85.0},
        50);
    config_monitor =
        std::make_unique<core::ConfigMonitor>(*ssm, sim, bus, 200);
    if (cfg.lockstep && shadow_cpu) {
        if (redundancy_monitor) sim.remove_tickable(redundancy_monitor.get());
        redundancy_monitor = std::make_unique<core::RedundancyMonitor>(
            *ssm, sim, cpu, *shadow_cpu, 64);
        sim.add_tickable(redundancy_monitor.get());
    }

    recovery->set_post_restore([this] {
        if (cfi_monitor) cfi_monitor->reset();
        resync_shadow();
        // Checkpoint restore rewrites RAM off-bus (no write watch
        // fires): rebuild the translation against the restored bytes.
        refresh_translation();
    });

    core::ResponseContext ctx;
    ctx.bus = &bus;
    ctx.cpu = &cpu;
    ctx.keystore = &keystore;
    ctx.update_agent = update_agent.get();
    ctx.recovery = recovery.get();
    ctx.degradation = degradation.get();
    ctx.ssm = ssm.get();
    ctx.sim = &sim;
    ctx.operator_alert = [this](const std::string& message) {
        ++stats_.operator_alerts;
        trace.emit(sim.now(), "response", "operator-alert", message);
        recorder.record_slow(sim.now(), "response", "operator-alert",
                             /*severity=*/2, obs::FlightRecordType::kInstant,
                             0, 0, message);
    };
    ctx.system_reset = [this] { reboot("response-manager reset"); };
    ctx.rate_limiter = [this](const std::string& resource) {
        // Temporarily fence the peripheral; lift the clamp shortly after.
        if (!bus.isolate_region(resource)) {
            return std::string("no such peripheral '") + resource + "'";
        }
        sim.schedule_in(500, "rate-limit-release " + resource,
                        [this, resource] {
                            (void)bus.isolate_region(resource, false);
                        });
        return std::string("clamped '") + resource + "' for 500 cycles";
    };
    response_manager = std::make_unique<core::ActiveResponseManager>(ctx);
    ssm->set_response_executor(response_manager.get());

    ssm->bind_siem(siem);

    if (cfg.metrics) {
        // Get-or-create registration: a rebuilt engine (re-keyed at
        // provision time) continues the existing metric series.
        siem.bind_metrics(metrics);
        ssm->bind_metrics(metrics);
        bus_monitor->bind_metrics(metrics);
        cfi_monitor->bind_metrics(metrics);
        memory_monitor->bind_metrics(metrics);
        dift_monitor->bind_metrics(metrics);
        peripheral_monitor->bind_metrics(metrics);
        timing_monitor->bind_metrics(metrics);
        network_monitor->bind_metrics(metrics);
        environment_monitor->bind_metrics(metrics);
        config_monitor->bind_metrics(metrics);
        if (redundancy_monitor) redundancy_monitor->bind_metrics(metrics);
        recovery->bind_metrics(metrics);
        degradation->bind_metrics(metrics);
        response_manager->bind_metrics(metrics);
    }

    if (recorder.capacity() > 0) {
        // Deterministic binding order => deterministic name-table ids.
        ssm->bind_recorder(recorder);
        bus_monitor->bind_recorder(recorder);
        cfi_monitor->bind_recorder(recorder);
        memory_monitor->bind_recorder(recorder);
        dift_monitor->bind_recorder(recorder);
        peripheral_monitor->bind_recorder(recorder);
        timing_monitor->bind_recorder(recorder);
        network_monitor->bind_recorder(recorder);
        environment_monitor->bind_recorder(recorder);
        config_monitor->bind_recorder(recorder);
        if (redundancy_monitor) redundancy_monitor->bind_recorder(recorder);
    }

    sim.add_tickable(ssm.get());
    sim.add_tickable(peripheral_monitor.get());
    sim.add_tickable(timing_monitor.get());
    sim.add_tickable(environment_monitor.get());
    sim.add_tickable(config_monitor.get());
}

void Node::provision(const crypto::MerklePublicKey& vendor_pk,
                     BytesView device_root) {
    const Bytes attest_key =
        crypto::hkdf(device_root, to_bytes(cfg.name), "attestation", 32);
    const Bytes channel_key =
        crypto::hkdf(device_root, to_bytes(cfg.name), "m2m-channel", 32);
    const Bytes seal_key =
        crypto::hkdf(device_root, to_bytes(cfg.name), "evidence-seal", 32);

    keystore.install("device-root",
                     Bytes(device_root.begin(), device_root.end()),
                     crypto::KeyAccess::kSsmOnly);
    keystore.install("attestation", attest_key,
                     crypto::KeyAccess::kSecureOnly);
    keystore.install("m2m-channel", channel_key,
                     crypto::KeyAccess::kSecureOnly);

    tee.provision_key("attest", attest_key);
    channel = std::make_unique<net::SecureChannel>(nic, channel_key);
    if (cfg.causal_tracing) channel->enable_tracing(cfg.device_index);

    rom = std::make_unique<boot::BootRom>(vendor_pk, counters);
    rom->set_strict_rollback(cfg.strict_rollback);
    update_agent = std::make_unique<boot::UpdateAgent>(vendor_pk, counters);
    update_agent->set_reject_observer([this](boot::UpdateStatus status,
                                             const std::string& name,
                                             std::uint64_t offered,
                                             std::uint64_t floor) {
        // Admission-gate rejects already surface through the gate's own
        // observer as critical boot events; everything else (rollback
        // attempts, bad signatures, garbage images) lands here as an
        // advisory the fleet tier can correlate into downgrade waves.
        if (status == boot::UpdateStatus::kPolicyRejected) return;
        trace.emit(sim.now(), "boot", "update-rejected",
                   update_status_name(status) + ": " + name);
        if (!ssm) return;
        core::MonitorEvent event;
        event.at = sim.now();
        event.monitor = "update-agent";
        event.category = core::EventCategory::kBoot;
        event.severity = core::EventSeverity::kAdvisory;
        event.resource = name.empty() ? "firmware" : name;
        event.detail = "rejected install (" + update_status_name(status) +
                       ")";
        event.a = offered;
        event.b = floor;
        ssm->submit(event);
    });

    if (cfg.admission_mode != boot::AdmissionMode::kOff) {
        admission_gate = std::make_unique<analysis::AnalysisGate>(
            cfg.admission_policy, cfg.admission_mode);
        admission_gate->set_observer([this](const boot::FirmwareImage& image,
                                            const analysis::Report& report,
                                            bool rejected) {
            if (cfg.metrics) {
                metrics.counter("cres_analysis_images_total").inc();
                if (report.errors() != 0) {
                    metrics.counter("cres_analysis_errors_total")
                        .inc(report.errors());
                }
                if (report.warnings() != 0) {
                    metrics.counter("cres_analysis_warnings_total")
                        .inc(report.warnings());
                }
                if (rejected) metrics.counter("cres_analysis_rejects").inc();
                if (report.proofs) {
                    metrics.counter("cres_analysis_proof_ops_total")
                        .inc(report.proofs->mem_ops);
                    metrics.counter("cres_analysis_proof_proven_total")
                        .inc(report.proofs->proven_ops);
                    metrics.counter("cres_analysis_proof_certificates")
                        .inc(report.proofs->certificates.size());
                }
            }
            trace.emit(sim.now(), "boot",
                       rejected ? "image-rejected" : "image-verified",
                       image.name + ": " + report.summary());
            // kWarn mode admits flawed images; run them interpreted so
            // the fast path never executes code the verifier distrusts.
            if (report.errors() != 0) translation_vetoed_ = true;
            if (!rejected) return;
            recorder.record_slow(sim.now(), "boot", "image-rejected",
                                 /*severity=*/3,
                                 obs::FlightRecordType::kInstant,
                                 report.errors(), report.warnings(),
                                 image.name + ": " + report.summary());
            if (ssm) {
                core::MonitorEvent event;
                event.at = sim.now();
                event.monitor = "static-verifier";
                event.category = core::EventCategory::kBoot;
                event.severity = core::EventSeverity::kCritical;
                event.resource = image.name;
                event.detail = report.summary();
                event.a = report.errors();
                event.b = report.warnings();
                ssm->submit(event);
            }
        });
        if (cfg.analysis_cache &&
            cfg.analysis_cache->policy() == cfg.admission_policy) {
            // Fleet-shared proofs: each distinct firmware is analyzed
            // once estate-wide; every other node admits from the
            // cached report (verdict logic still runs per node). A
            // node whose admission policy differs from the cache's
            // must not admit from it — it keeps local analysis so a
            // stricter policy is never silently judged under the
            // fleet default.
            admission_gate->set_report_provider(
                [this](const boot::FirmwareImage& image) {
                    if (cfg.metrics) {
                        metrics
                            .counter("cres_analysis_proof_artifacts_total")
                            .inc();
                    }
                    return cfg.analysis_cache->get_or_analyze(
                        AnalysisCache::key_for(image.payload,
                                               image.load_addr,
                                               image.entry_point),
                        image.payload, image.load_addr, image.entry_point);
                });
        }
        rom->set_admission_gate(admission_gate.get());
        update_agent->set_admission_gate(admission_gate.get());
    }

    // Re-key the security engine with the derived evidence key (the SSM
    // has no meaningful history at provision time).
    if (cfg.resilient) build_security_engine(seal_key);
}

boot::BootReport Node::secure_boot(
    const std::vector<boot::FirmwareImage>& chain) {
    if (!rom) throw PlatformError("Node: provision() before secure_boot()");
    boot_chain_ = chain;
    loaded_program_.reset();
    translation_vetoed_ = false;
    const boot::BootReport report =
        rom->boot_chain(chain, app_ram, kAppRamBase, pcrs);
    trace.emit(sim.now(), "boot", report.success ? "boot-ok" : "boot-fail",
               report.summary());
    if (report.success) {
        entry_ = report.entry_point;
        stats_.downtime_cycles += report.verification_cost_cycles;
        cpu.reset(entry_);
    }
    refresh_translation();
    return report;
}

void Node::load_and_start(const isa::Program& program) {
    if (program.origin < kAppRamBase) {
        throw PlatformError("Node: program origin below app RAM");
    }
    loaded_program_ = program;
    translation_vetoed_ = false;  // Debug loads bypass the gate.
    install_program_image(program);
    entry_ = program.origin;
    cpu.reset(entry_);
    if (shadow_cpu) {
        shadow_ram->load(program.origin - kAppRamBase, program.code);
        if (mirror) mirror->clear();
        shadow_cpu->reset(entry_);
    }
    refresh_translation();
}

void Node::install_program_image(const isa::Program& program) {
    const mem::Addr offset =
        static_cast<mem::Addr>(program.origin - kAppRamBase);
    if (cfg.firmware_store) {
        // Fleet memory diet: RAM reads the code from one fleet-shared
        // immutable copy; writes promote pages to private copies.
        app_ram.set_backing(
            cfg.firmware_store->get_or_add(
                FirmwareStore::key_for(program.code, program.origin),
                program.code),
            offset);
        return;
    }
    app_ram.load(offset, program.code);
}

void Node::refresh_translation() {
    cpu.clear_translation();
    if (shadow_cpu) shadow_cpu->clear_translation();
    if (!cfg.translate || translation_vetoed_) return;

    // Identify the source of the code currently in memory. Debug loads
    // key by content hash; secure-booted images key by their measured
    // digest, so fleet nodes running the same firmware share one entry.
    BytesView code;
    mem::Addr base = 0;
    crypto::Hash256 key{};
    if (loaded_program_.has_value() && entry_ == loaded_program_->origin) {
        code = loaded_program_->code;
        base = loaded_program_->origin;
        key = TranslationCache::key_for(code, base, entry_);
    } else {
        const boot::FirmwareImage* match = nullptr;
        for (const auto& image : boot_chain_) {
            if (entry_ >= image.load_addr &&
                entry_ - image.load_addr < image.payload.size()) {
                match = &image;
            }
        }
        if (match == nullptr) return;
        code = match->payload;
        base = match->load_addr;
        key = match->digest();
    }
    if (code.empty() || base < kAppRamBase) return;

    // The translation must describe the bytes actually in memory. A
    // mixed lifecycle (e.g. a debug load over a previously booted
    // chain) can leave RAM diverged from the candidate source; the
    // interpreter is always correct, so just skip installation then.
    if (!app_ram.matches(static_cast<mem::Addr>(base - kAppRamBase), code)) {
        return;
    }

    std::shared_ptr<const isa::TranslationImage> image =
        cfg.translation_cache
            ? cfg.translation_cache->get_or_build(key, code, base, entry_)
            : analysis::translate_image_shared(code, base, entry_);
    cpu.install_translation(image);
    if (shadow_cpu) shadow_cpu->install_translation(std::move(image));
}

void Node::reboot(const std::string& reason) {
    if (rebooting_) return;
    rebooting_ = true;
    ++stats_.reboots;
    stats_.downtime_cycles += cfg.reboot_downtime;
    cpu.halt();
    trace.emit(sim.now(), "system", "reboot", reason);
    recorder.record_slow(sim.now(), "system", "reboot", /*severity=*/2,
                         obs::FlightRecordType::kInstant, 0, 0, reason);

    if (!cfg.resilient) {
        // Volatile telemetry dies with the reset — the passive
        // platform's evidence-loss failure mode.
        trace.clear();
    }

    sim.schedule_in(cfg.reboot_downtime, "reboot: " + reason, [this] {
        rebooting_ = false;
        if (!boot_chain_.empty() && rom) {
            pcrs.reset();
            translation_vetoed_ = false;
            const boot::BootReport report =
                rom->boot_chain(boot_chain_, app_ram, kAppRamBase, pcrs);
            if (report.success) {
                entry_ = report.entry_point;
                cpu.reset(entry_);
            }
            refresh_translation();
            return;
        }
        if (loaded_program_.has_value()) {
            install_program_image(*loaded_program_);
            cpu.reset(loaded_program_->origin);
            refresh_translation();
        }
    });
}

void Node::pump_network() {
    while (auto frame = nic.receive_frame()) {
        // Attestation service: answer challenges from the secure world.
        if (const auto nonce = net::decode_challenge(*frame)) {
            const auto quote = tee.quote(pcrs, *nonce, "attest");
            if (quote && nic.linked()) {
                nic.send_frame(net::encode_quote(*quote));
            }
            continue;
        }
        // Everything else is authenticated channel traffic.
        if (channel) {
            const net::Received received = channel->process(*frame);
            if (received.trace && received.trace->hop > 0 &&
                recorder.capacity() > 0) {
                // Flow endpoint: pairs with the sender's "net-send"
                // record (same span id) as a Perfetto flow arrow. Only
                // chained frames (hop > 0) have a sender-side record,
                // so every "t" flow event has a matching "s".
                recorder.record_slow(
                    sim.now(), "net", "net-recv", /*severity=*/0,
                    obs::FlightRecordType::kInstant,
                    received.trace->span_id,
                    (std::uint64_t{received.trace->origin_device} << 32) |
                        received.trace->hop,
                    {});
            }
            if (network_monitor) {
                // The sequence number is channel-layer metadata: replay
                // fingerprints and forged-frame origin hints for the
                // fleet correlation tier. The claimed trace context
                // rides along for exact provenance reconstruction.
                network_monitor->note_rx(received.status,
                                         received.payload.size(),
                                         received.sequence, received.trace);
            }
        }
    }
}

void Node::resync_shadow() {
    if (!shadow_cpu || !shadow_ram) return;
    shadow_ram->load(0, app_ram.dump(0, app_ram.size()));
    if (mirror) mirror->clear();
    shadow_cpu->reset(cpu.pc());
    for (unsigned i = 1; i < 16; ++i) shadow_cpu->set_reg(i, cpu.reg(i));
    for (std::uint16_t i = 0; i < isa::kCsrCount; ++i) {
        if (i == isa::kCsrMcycle || i == isa::kCsrMinstret) continue;
        shadow_cpu->set_csr(i, cpu.csr(i));
    }
}

void Node::take_checkpoint() {
    if (recovery) (void)recovery->take_checkpoint(sim.now());
}

void Node::arm_resilience(const isa::Program& program) {
    if (!cfg.resilient) return;

    // CFI: every symbol is a legal call target; nothing else is.
    std::set<mem::Addr> targets;
    for (const auto& [name, addr] : program.symbols) targets.insert(addr);
    cfi_monitor->set_valid_targets(std::move(targets));

    // Memory: the text segment is code; secrets are watched.
    memory_monitor->protect_code_range(
        program.origin, static_cast<mem::Addr>(program.code.size()));
    memory_monitor->watch_sensitive("app-secrets", kSecretBase, kSecretSize,
                                    64, 10000);

    // DIFT: secrets (app + TEE key storage) are sources; NIC and UART
    // are public sinks.
    dift_monitor->add_source(kSecretBase, kSecretSize);
    dift_monitor->add_source(kTeeRamBase, kTeeRamSize);
    dift_monitor->add_sink_region("nic");
    dift_monitor->add_sink_region("uart");

    // Bus: DMA may only touch application RAM; debug/attacker masters
    // have no legitimate regions at runtime.
    bus_monitor->allow_master(mem::Master::kDma, {"app_ram"});
    bus_monitor->allow_master(mem::Master::kDebug, {});
    bus_monitor->allow_master(mem::Master::kAttacker, {});

    // Peripheral envelopes.
    peripheral_monitor->watch_actuator(
        "actuator", kActuatorBase + dev::Actuator::kRegCommand,
        core::ActuatorEnvelope{-50.0, 50.0, 20.0, 20, 2000});
    peripheral_monitor->watch_sensor(
        sensor,
        core::SensorEnvelope{cfg.sensor_nominal - 20.0,
                             cfg.sensor_nominal + 20.0, 10.0},
        100);

    // Liveness.
    timing_monitor->register_task("control-loop", 4000);

    // Golden interconnect configuration.
    config_monitor->snapshot_golden();

    // Identify: the asset inventory.
    auto& risks = ssm->risks();
    risks.add_asset("actuator", core::AssetKind::kPeripheral, 5, 3);
    risks.add_asset("sensor", core::AssetKind::kPeripheral, 4, 3);
    risks.add_asset("nic", core::AssetKind::kChannel, 3, 5);
    risks.add_asset("tee_ram", core::AssetKind::kKey, 5, 2);
    risks.add_asset("app_ram", core::AssetKind::kMemoryRegion, 4, 4);
    risks.add_asset("control-loop", core::AssetKind::kTask, 5, 3);

    // Policy.
    ssm->set_policy(core::PolicyEngine::parse(
        cfg.policy_dsl.empty() ? default_policy() : cfg.policy_dsl));
}

void Node::append_chrome_trace(obs::ChromeTrace& out) const {
    const std::uint32_t pid = out.process(cfg.name);

    if (ssm) {
        const std::uint32_t tid = out.thread(pid, "incidents");
        for (const auto& b : ssm->postmortems()) {
            out.complete(pid, tid,
                         "incident #" + std::to_string(b.incident_id),
                         "incident", b.opened_at, b.closed_at - b.opened_at);
            for (std::size_t p = 0; p < obs::kCsfPhaseCount; ++p) {
                if ((b.marked & (1U << p)) == 0U) continue;
                out.instant(
                    pid, tid,
                    obs::csf_phase_name(static_cast<obs::CsfPhase>(p)),
                    "csf", b.phase_at[p]);
            }
        }
        // Incidents still in progress: opened but never recovered.
        if (const obs::SpanTracer* spans = ssm->spans()) {
            for (const auto& m : spans->open_marks()) {
                out.instant(pid, tid,
                            "incident #" + std::to_string(m.id) + " (open)",
                            "incident", m.opened_at);
                for (std::size_t p = 0; p < obs::kCsfPhaseCount; ++p) {
                    if ((m.marked & (1U << p)) == 0U) continue;
                    out.instant(
                        pid, tid,
                        obs::csf_phase_name(static_cast<obs::CsfPhase>(p)),
                        "csf", m.at[p]);
                }
            }
        }
    }

    // Flight-recorder tracks: one thread per source, replayed oldest ->
    // newest; counter records become per-kind counter series on the
    // process track.
    recorder.for_each([&](const obs::FlightRecord& r) {
        if (r.type == obs::FlightRecordType::kCounter) {
            out.counter(pid, recorder.name(r.kind), r.at, r.a);
            return;
        }
        const std::uint32_t tid = out.thread(pid, recorder.name(r.source));
        // Causal-trace endpoints render as Chrome flow events: Perfetto
        // draws an arrow from each "net-send" to the "net-recv" with
        // the same span id (record scalar a), across device tracks.
        if (recorder.name(r.source) == "net") {
            const std::string_view kind = recorder.name(r.kind);
            if (kind == "net-send") {
                out.flow_start(pid, tid, "frame", "m2m-flow", r.at, r.a);
                return;
            }
            if (kind == "net-recv") {
                out.flow_step(pid, tid, "frame", "m2m-flow", r.at, r.a);
                return;
            }
        }
        out.instant(pid, tid, recorder.name(r.kind),
                    core::severity_name(
                        static_cast<core::EventSeverity>(r.severity)),
                    r.at, r.detail_view());
    });
}

std::string Node::chrome_trace() const {
    obs::ChromeTrace out;
    append_chrome_trace(out);
    return out.json();
}

}  // namespace cres::platform
