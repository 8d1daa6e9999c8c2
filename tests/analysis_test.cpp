// Static firmware verifier: CFG construction, policy passes, and the
// secure-boot/update admission gate (unit + end-to-end).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/absint.h"
#include "analysis/verifier.h"
#include "boot/image.h"
#include "boot/secureboot.h"
#include "boot/update.h"
#include "isa/assembler.h"
#include "platform/node.h"
#include "platform/workload.h"

namespace cres::analysis {
namespace {

using platform::kCodeBase;
using platform::kDataBase;
using platform::kStackTop;

isa::Program asm_at_code_base(const std::string& source) {
    return isa::assemble(source, kCodeBase);
}

Report analyze_program(const isa::Program& program,
                       const Policy& policy = {}) {
    const FirmwareVerifier verifier(policy);
    return verifier.analyze(program.code, program.origin,
                            program.symbol("start"));
}

bool has_code(const Report& report, std::string_view code) {
    for (const auto& f : report.findings) {
        if (f.code == code) return true;
    }
    return false;
}

// --- CFG construction -------------------------------------------------

TEST(Cfg, SplitsBlocksAndResolvesMaterializedTargets) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r1, 5
    loop:
        addi r1, r1, -1
        bne  r1, r0, loop
        li   r2, 0x20000
        sw   r1, r2, 8
        halt
    )");
    const Cfg cfg = build_cfg(p.code, p.origin, p.symbol("start"));

    EXPECT_GE(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.reachable_count(), cfg.words.size());
    // The bne is a resolved branch with two successors.
    bool saw_branch = false;
    for (const JumpSite& j : cfg.jumps) {
        if (j.kind == JumpKind::kBranch) {
            saw_branch = true;
            EXPECT_TRUE(j.resolved);
            EXPECT_EQ(j.target, p.symbol("loop"));
        }
    }
    EXPECT_TRUE(saw_branch);
    // The materialized store address resolved statically.
    ASSERT_EQ(cfg.accesses.size(), 1u);
    EXPECT_EQ(cfg.accesses[0].target, 0x20008u);
    EXPECT_TRUE(cfg.accesses[0].is_store);
}

TEST(Cfg, TrapVectorWritesBecomeRoots) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        la   r1, handler
        csrw mtvec, r1
        halt
    handler:
        mret
    )");
    const Cfg cfg = build_cfg(p.code, p.origin, p.symbol("start"));
    // The handler is only referenced through the csr write, yet it is
    // explored: a vector jump site plus a second root.
    EXPECT_EQ(cfg.roots.size(), 2u);
    EXPECT_EQ(cfg.reachable_count(), cfg.words.size());
    bool saw_vector = false;
    for (const JumpSite& j : cfg.jumps) {
        if (j.kind == JumpKind::kVector) {
            saw_vector = true;
            EXPECT_EQ(j.target, p.symbol("handler"));
        }
    }
    EXPECT_TRUE(saw_vector);
}

TEST(Cfg, CallLinksFallThroughAndReturnIsTerminal) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        call fn
        halt
    fn:
        ret
    )");
    const Cfg cfg = build_cfg(p.code, p.origin, p.symbol("start"));
    const auto fn = cfg.blocks.find(p.symbol("fn"));
    ASSERT_NE(fn, cfg.blocks.end());
    EXPECT_TRUE(fn->second.terminal);
    EXPECT_EQ(cfg.reachable_count(), cfg.words.size());
}

// --- policy passes ----------------------------------------------------

TEST(Verifier, SeedWorkloadsAreAdmissible) {
    for (const isa::Program& p :
         {platform::control_loop_program(),
          platform::interrupt_control_loop_program(),
          platform::checksum_program(16)}) {
        const Report report = analyze_program(p);
        EXPECT_EQ(report.errors(), 0u) << report.render();
        EXPECT_EQ(report.warnings(), 0u) << report.render();
        EXPECT_TRUE(report.stack_bounded);
        EXPECT_TRUE(report.admissible());
    }
}

TEST(Verifier, FlagsStoreToReachableCodeAsWxViolation) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        la   r1, start
        sw   r0, r1, 0
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_TRUE(has_code(report, "wx-violation")) << report.render();
    EXPECT_FALSE(report.admissible());
}

TEST(Verifier, AllowsDataInTextStoresAsInfo) {
    // Unreachable in-image words written at runtime (counters embedded
    // in the text section) are informational, not W^X errors.
    const isa::Program p = asm_at_code_base(R"(
    start:
        la   r1, counter
        sw   r0, r1, 0
        halt
    counter:
        .word 0
    )");
    const Report report = analyze_program(p);
    EXPECT_FALSE(has_code(report, "wx-violation")) << report.render();
    EXPECT_TRUE(has_code(report, "data-in-text-store"));
    EXPECT_TRUE(report.admissible()) << report.render();
}

TEST(Verifier, FlagsExecFromDataViaResolvedIndirectJump) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   r1, 0x20000
        jalr r0, r1, 0
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_TRUE(has_code(report, "exec-from-data")) << report.render();
    EXPECT_FALSE(report.admissible());
}

TEST(Verifier, FlagsJumpOutsideImageInCodeSegmentAsWarning) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   r1, 0x18000
        jalr r0, r1, 0
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_TRUE(has_code(report, "jump-outside-image")) << report.render();
    EXPECT_TRUE(report.admissible());
    EXPECT_FALSE(report.admissible(/*warnings_as_errors=*/true));
}

TEST(Verifier, FlagsIllegalOpcodeOnReachablePath) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        nop
        .word 0xff000001
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_TRUE(has_code(report, "illegal-opcode")) << report.render();
    EXPECT_FALSE(report.admissible());
}

TEST(Verifier, UnreachableGarbageIsInformationalOnly) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        halt
    blob:
        .word 0xff000001
        .word 0xdeadbeef
    )");
    const Report report = analyze_program(p);
    EXPECT_FALSE(has_code(report, "illegal-opcode")) << report.render();
    EXPECT_TRUE(has_code(report, "unreachable-code"));
    EXPECT_TRUE(report.admissible());
}

TEST(Verifier, FlagsEntryProblems) {
    const isa::Program p = asm_at_code_base("start:\n halt\n");
    const FirmwareVerifier verifier;

    Report report = verifier.analyze(p.code, p.origin, p.origin + 0x1000);
    EXPECT_TRUE(has_code(report, "entry-out-of-image"));
    EXPECT_FALSE(report.admissible());

    report = verifier.analyze(p.code, p.origin, p.origin + 2);
    EXPECT_TRUE(has_code(report, "entry-misaligned"));

    report = verifier.analyze(BytesView{}, p.origin, p.origin);
    EXPECT_TRUE(has_code(report, "empty-image"));
}

TEST(Verifier, ReportsTruncatedTailBytes) {
    isa::Program p = asm_at_code_base("start:\n nop\n halt\n");
    p.code.push_back(0xab);  // 9 bytes: one dangling.
    const Report report = analyze_program(p);
    EXPECT_EQ(report.tail_bytes, 1u);
    EXPECT_TRUE(has_code(report, "tail-bytes"));
    EXPECT_TRUE(report.admissible());
}

TEST(Verifier, ComputesWorstCaseStackDepthAcrossCalls) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        addi sp, sp, -16
        call fn
        addi sp, sp, 16
        halt
    fn:
        addi sp, sp, -24
        addi sp, sp, 24
        ret
    )");
    const Report report = analyze_program(p);
    EXPECT_EQ(report.max_stack_bytes, 40u) << report.render();
    EXPECT_TRUE(report.stack_bounded);
    EXPECT_TRUE(report.admissible());
}

TEST(Verifier, EnforcesStackBudget) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        addi sp, sp, -64
        halt
    )");
    Policy policy;
    policy.max_stack_bytes = 32;
    const Report report = analyze_program(p, policy);
    EXPECT_TRUE(has_code(report, "stack-depth-exceeded")) << report.render();
    EXPECT_FALSE(report.admissible());
}

TEST(Verifier, FlagsRecursionAsUnboundedStack) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        call fn
        halt
    fn:
        addi sp, sp, -8
        call fn
        addi sp, sp, 8
        ret
    )");
    const Report report = analyze_program(p);
    EXPECT_FALSE(report.stack_bounded);
    EXPECT_TRUE(has_code(report, "stack-unbounded")) << report.render();
}

TEST(Verifier, UnprivilegedPolicyBansSystemOpcodes) {
    const isa::Program p = platform::control_loop_program();
    const Report deflt = analyze_program(p);
    EXPECT_FALSE(has_code(deflt, "banned-opcode"));

    const Report restricted = analyze_program(p, Policy::unprivileged());
    EXPECT_TRUE(has_code(restricted, "banned-opcode"))
        << restricted.render();
    EXPECT_FALSE(restricted.admissible());
}

TEST(Verifier, RendersFindingsWithSeverityAndAddress) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        la   r1, start
        sw   r0, r1, 0
        halt
    )");
    const Report report = analyze_program(p);
    const std::string text = report.render();
    EXPECT_NE(text.find("[error]"), std::string::npos) << text;
    EXPECT_NE(text.find("wx-violation"), std::string::npos) << text;
    EXPECT_NE(text.find("0x"), std::string::npos) << text;
    EXPECT_NE(report.summary().find("error"), std::string::npos);
}

// --- cross-block constant propagation ----------------------------------

TEST(Cfg, ConstantsFlowAcrossBlockBoundaries) {
    // An implant that splits its pointer materialization across a basic
    // block boundary: the lui lands in one block, the ori + dispatch in
    // the next (the label is a branch target, so it starts a block).
    // Block-local propagation loses r1 at the boundary and the jalr
    // stays unresolved; flow-through propagation resolves it into the
    // data segment and the exec-from-data pass fires.
    const isa::Program branch_split = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r2, 1
        lui  r1, 2
        bne  r2, r0, mid
    mid:
        ori  r1, r1, 0
        jalr r0, r1, 0
        halt
    )");
    const Report branch_report = analyze_program(branch_split);
    EXPECT_TRUE(has_code(branch_report, "exec-from-data"))
        << branch_report.render();
    EXPECT_FALSE(branch_report.admissible());

    // Same implant split across an unconditional jump edge.
    const isa::Program jump_split = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        lui  r1, 2
        j    fin
    fin:
        ori  r1, r1, 0
        jalr r0, r1, 0
        halt
    )");
    const Report jump_report = analyze_program(jump_split);
    EXPECT_TRUE(has_code(jump_report, "exec-from-data"))
        << jump_report.render();
    EXPECT_FALSE(jump_report.admissible());
}

// --- abstract interpretation -------------------------------------------

TEST(AbsInt, WideningTerminatesOnUnboundedCountingLoop) {
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r1, 0
    loop:
        addi r1, r1, 1
        j    loop
    )");
    const Cfg cfg = build_cfg(p.code, p.origin, p.symbol("start"));
    const AbsIntResult result =
        analyze_image(cfg, SegmentMap::soc_default());
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.iterations, 1000u);
}

TEST(AbsInt, CountedLoopTightensStackBound) {
    // Eight fixed-size pushes with no matching pops: per-iteration
    // accounting calls this unbounded; the trip-count inference proves
    // the loop runs exactly 8 times and certifies 8 * 4 bytes.
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r7, 8
    loop:
        addi sp, sp, -4
        sw   r0, sp, 0
        addi r7, r7, -1
        bne  r7, r0, loop
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_TRUE(report.stack_bounded) << report.render();
    EXPECT_TRUE(has_code(report, "stack-bound-tightened"))
        << report.render();
    // 8 pushes x 4 bytes = 32 concrete; the certificate over-counts by
    // at most one iteration (entry ceiling + in-block peak).
    EXPECT_GE(report.max_stack_bytes, 32u) << report.render();
    EXPECT_LE(report.max_stack_bytes, 36u) << report.render();
    EXPECT_TRUE(report.admissible());
}

TEST(AbsInt, ComputedReturnBlocksStackBoundTightening) {
    // Same counted loop as above, but the image also reaches an mret:
    // its continuation (mepc) is arbitrary computed control flow, so
    // runtime can re-enter the loop header with a counter the static
    // entries never saw. The inferred trip bound must not override
    // the syntactic unbounded warning, and every certificate the mret
    // block poisons must refuse to claim a bound.
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r7, 8
    loop:
        addi sp, sp, -4
        sw   r0, sp, 0
        addi r7, r7, -1
        bne  r7, r0, loop
        mret
    )");
    const Report report = analyze_program(p);
    EXPECT_FALSE(has_code(report, "stack-bound-tightened"))
        << report.render();
    EXPECT_FALSE(report.stack_bounded) << report.render();
    EXPECT_TRUE(has_code(report, "stack-unbounded")) << report.render();
    ASSERT_NE(report.proofs, nullptr);
    ASSERT_FALSE(report.proofs->certificates.empty());
    for (const auto& cert : report.proofs->certificates) {
        EXPECT_FALSE(cert.bounded)
            << "certificate through an mret claimed a bound";
    }
}

TEST(AbsInt, ProvenOpsCountsAccessesProvenAcrossBlocks) {
    // The load's base register is materialized in a predecessor block
    // reached by a direct jump. The interprocedural fixpoint carries
    // the constant across the edge, so the bounds pass proves the load
    // and proven_ops counts it: one definition of "proven".
    std::ostringstream os;
    os << "start:\n"
       << "    li   r1, " << kDataBase << "\n"
       << "    j    use\n"
       << "use:\n"
       << "    lw   r3, r1, 0\n"
       << "    halt\n";
    const Report report = analyze_program(isa::assemble(os.str(), kCodeBase));
    ASSERT_NE(report.proofs, nullptr);
    EXPECT_EQ(report.proofs->mem_ops, 1u);
    EXPECT_EQ(report.proofs->proven_ops, 1u);
    const auto proven =
        std::find_if(report.findings.begin(), report.findings.end(),
                     [](const Finding& f) { return f.code == "bounds-proven"; });
    ASSERT_NE(proven, report.findings.end()) << report.render();
    EXPECT_EQ(proven->detail.rfind("1/1 ", 0), 0u) << proven->detail;
}

TEST(AbsInt, SeedWorkloadsCarryProofAnnotations) {
    const Report report = analyze_program(platform::control_loop_program());
    ASSERT_NE(report.proofs, nullptr);
    EXPECT_GT(report.proofs->mem_ops, 0u);
    EXPECT_GT(report.proofs->proven_ops, 0u);
    EXPECT_GT(report.proofs->coverage(), 0.0);
    EXPECT_FALSE(report.proofs->certificates.empty());
    EXPECT_TRUE(has_code(report, "bounds-proven")) << report.render();
}

TEST(AbsInt, RejectsProvablyOutOfBoundsStoreNamingThePc) {
    // 0x1000 is below app RAM: in no segment and outside the image.
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r1, 0x1000
    sink:
        sw   r0, r1, 0
        halt
    )");
    const Report report = analyze_program(p);
    EXPECT_FALSE(report.admissible()) << report.render();
    bool named = false;
    for (const auto& f : report.findings) {
        if (f.code == "oob-store") {
            named = true;
            EXPECT_EQ(f.addr, p.symbol("sink"));
        }
    }
    EXPECT_TRUE(named) << report.render();
}

// --- taint KATs: every source x sink pair ------------------------------

struct TaintSource {
    const char* segment;
    const char* source_name;
    mem::Addr base;
};

struct TaintSink {
    const char* code;
    const char* asm_line;
};

TEST(Taint, EverySourceSinkPairIsRejectedAtTheSinkPc) {
    const TaintSource sources[] = {
        {"nic", "nic-rx", platform::kNicBase},
        {"dma", "dma-desc", platform::kDmaBase},
        {"sensor", "sensor-mmio", platform::kSensorBase},
    };
    const TaintSink sinks[] = {
        {"taint-indirect-jump", "jalr r0, r2, 0"},
        {"taint-store-address", "sw   r0, r2, 0"},
        {"taint-csr-write", "csrw mtvec, r2"},
    };
    for (const TaintSource& src : sources) {
        for (const TaintSink& sink : sinks) {
            std::ostringstream os;
            os << "start:\n"
               << "    li   sp, " << kStackTop << "\n"
               << "    li   r1, " << src.base << "\n"
               << "    lw   r2, r1, 0\n"
               << "sink:\n"
               << "    " << sink.asm_line << "\n"
               << "    halt\n";
            const isa::Program p = asm_at_code_base(os.str());
            const Report report = analyze_program(p);
            SCOPED_TRACE(std::string(src.segment) + " -> " + sink.code);
            EXPECT_FALSE(report.admissible()) << report.render();
            bool named = false;
            for (const auto& f : report.findings) {
                if (f.code == sink.code) {
                    named = true;
                    EXPECT_EQ(f.addr, p.symbol("sink")) << report.render();
                }
            }
            EXPECT_TRUE(named) << report.render();
            bool traced = false;
            for (const auto& t : report.taint_traces) {
                if (t.sink_pc == p.symbol("sink") &&
                    t.source == src.source_name) {
                    traced = true;
                }
            }
            EXPECT_TRUE(traced) << report.render();
        }
    }
}

TEST(Taint, SensorDataToActuatorStoreStaysAdmissible) {
    // Tainted *data* through an untainted constant address is the
    // control loop's whole job — only tainted addresses/targets sink.
    std::ostringstream os;
    os << "start:\n"
       << "    li   sp, " << kStackTop << "\n"
       << "    li   r1, " << platform::kSensorBase << "\n"
       << "    lw   r2, r1, 0\n"
       << "    li   r3, " << platform::kActuatorBase << "\n"
       << "    sw   r2, r3, 0\n"
       << "    halt\n";
    const Report report = analyze_program(asm_at_code_base(os.str()));
    EXPECT_EQ(report.errors(), 0u) << report.render();
    EXPECT_TRUE(report.admissible());
    for (const auto& f : report.findings) {
        EXPECT_NE(f.code.substr(0, 6), "taint-") << report.render();
    }
}

// --- admission gate ---------------------------------------------------

crypto::MerkleSigner test_vendor(std::uint8_t fill) {
    crypto::Hash256 seed{};
    seed.fill(fill);
    return crypto::MerkleSigner(seed, 3);
}

boot::FirmwareImage signed_image(crypto::MerkleSigner& vendor,
                                 const isa::Program& program,
                                 const std::string& name,
                                 std::uint32_t version = 1) {
    boot::FirmwareImage image;
    image.name = name;
    image.security_version = version;
    image.load_addr = program.origin;
    image.entry_point = program.symbol("start");
    image.payload = program.code;
    boot::ImageSigner signer(vendor);
    signer.sign(image);
    return image;
}

isa::Program wx_implant_program() {
    return asm_at_code_base(R"(
    start:
        la   r1, start
        sw   r0, r1, 0
        halt
    )");
}

TEST(AnalysisGate, DenyRejectsWarnOnlyReports) {
    auto vendor = test_vendor(21);
    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");

    AnalysisGate deny(Policy{}, boot::AdmissionMode::kDeny);
    bool observed_reject = false;
    deny.set_observer([&](const boot::FirmwareImage&, const Report& report,
                          bool rejected) {
        observed_reject = rejected;
        EXPECT_GT(report.errors(), 0u);
    });
    const boot::AdmissionVerdict denied = deny.admit(bad);
    EXPECT_FALSE(denied.allow);
    EXPECT_GT(denied.errors, 0u);
    EXPECT_FALSE(denied.reason.empty());
    EXPECT_TRUE(observed_reject);

    AnalysisGate warn(Policy{}, boot::AdmissionMode::kWarn);
    const boot::AdmissionVerdict warned = warn.admit(bad);
    EXPECT_TRUE(warned.allow);
    EXPECT_GT(warned.errors, 0u);
}

TEST(AnalysisGate, BootRomReturnsPolicyRejectedAndSkipsMeasurement) {
    auto vendor = test_vendor(22);
    crypto::MonotonicCounterBank counters;
    boot::BootRom rom(vendor.public_key(), counters);
    AnalysisGate gate(Policy{}, boot::AdmissionMode::kDeny);
    rom.set_admission_gate(&gate);

    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");
    mem::Ram ram("app_ram", platform::kAppRamSize);
    boot::PcrBank pcrs;
    std::uint64_t cycles = 0;
    const boot::StageResult result =
        rom.boot_stage(bad, ram, platform::kAppRamBase, pcrs, cycles);
    EXPECT_EQ(result.status, boot::BootStatus::kPolicyRejected);
    EXPECT_EQ(boot::boot_status_name(result.status), "policy-rejected");
    // Rejected before "measure then load": no PCR entry, nothing loaded.
    EXPECT_TRUE(pcrs.log().empty());
    EXPECT_EQ(counters.value("fw_version"), 0u);
}

TEST(AnalysisGate, UpdateAgentReturnsPolicyRejectedAndCountsIt) {
    auto vendor = test_vendor(23);
    crypto::MonotonicCounterBank counters;
    boot::UpdateAgent agent(vendor.public_key(), counters);
    AnalysisGate gate(Policy{}, boot::AdmissionMode::kDeny);
    agent.set_admission_gate(&gate);

    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");
    EXPECT_EQ(agent.install(bad.serialize()),
              boot::UpdateStatus::kPolicyRejected);
    EXPECT_EQ(agent.rejected_installs(), 1u);
    EXPECT_FALSE(agent.inactive_image().has_value());

    const boot::FirmwareImage good =
        signed_image(vendor, platform::control_loop_program(), "ctrl");
    EXPECT_EQ(agent.install(good.serialize()), boot::UpdateStatus::kOk);
}

// --- end to end through the Node --------------------------------------

TEST(AnalysisGate, NodeDeniesMaliciousImageAndRecordsEvidence) {
    auto vendor = test_vendor(24);
    platform::NodeConfig config;
    config.resilient = true;
    platform::Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));
    ASSERT_NE(node.admission_gate, nullptr);

    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");
    const boot::BootReport report = node.secure_boot({bad});
    EXPECT_FALSE(report.success);
    ASSERT_EQ(report.stages.size(), 1u);
    EXPECT_EQ(report.stages[0].status, boot::BootStatus::kPolicyRejected);
    EXPECT_TRUE(node.cpu.halted());  // Nothing ran.

    const auto* rejects = node.metrics.find_counter("cres_analysis_rejects");
    ASSERT_NE(rejects, nullptr);
    EXPECT_EQ(rejects->value(), 1u);

    // The SSM drains the submitted boot event into sealed evidence.
    node.run(50);
    bool recorded = false;
    for (const auto& r : node.ssm->evidence().records()) {
        if (r.detail.find("static-verifier") != std::string::npos) {
            recorded = true;
        }
    }
    EXPECT_TRUE(recorded);
    EXPECT_TRUE(node.ssm->evidence().verify_chain());

    // The same node still admits healthy firmware afterwards.
    const boot::FirmwareImage good =
        signed_image(vendor, platform::control_loop_program(), "ctrl");
    EXPECT_TRUE(node.secure_boot({good}).success);
    EXPECT_EQ(rejects->value(), 1u);
}

TEST(AnalysisGate, MismatchedCachePolicyFallsBackToLocalAnalysis) {
    // The shared fleet cache analyzes under the *fleet's* policy. A
    // node provisioned with a stricter one must not admit from it:
    // the mul below is clean under the default policy already in the
    // cache, but this node bans it, so admission has to re-analyze
    // locally and reject.
    auto vendor = test_vendor(27);
    const isa::Program p = asm_at_code_base(R"(
    start:
        li   sp, 0x4fff0
        li   r1, 3
        mul  r1, r1, r1
        halt
    )");
    const boot::FirmwareImage image = signed_image(vendor, p, "muler");

    auto cache = std::make_shared<platform::AnalysisCache>();
    // Warm the cache with the default-policy verdict (no findings).
    const auto warmed = cache->get_or_analyze(
        platform::AnalysisCache::key_for(image.payload, image.load_addr,
                                         image.entry_point),
        image.payload, image.load_addr, image.entry_point);
    ASSERT_NE(warmed, nullptr);
    EXPECT_EQ(warmed->errors(), 0u);

    platform::NodeConfig config;
    config.admission_policy.banned_opcodes.push_back(isa::Opcode::kMul);
    config.analysis_cache = cache;
    platform::Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));
    ASSERT_NE(node.admission_gate, nullptr);

    const boot::BootReport report = node.secure_boot({image});
    EXPECT_FALSE(report.success);
    ASSERT_EQ(report.stages.size(), 1u);
    EXPECT_EQ(report.stages[0].status, boot::BootStatus::kPolicyRejected);
}

TEST(AnalysisGate, NodeWarnModeAdmitsButStillObserves) {
    auto vendor = test_vendor(25);
    platform::NodeConfig config;
    config.admission_mode = boot::AdmissionMode::kWarn;
    platform::Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));

    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");
    EXPECT_TRUE(node.secure_boot({bad}).success);
    const auto* total =
        node.metrics.find_counter("cres_analysis_images_total");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->value(), 1u);
    EXPECT_EQ(node.metrics.find_counter("cres_analysis_rejects"), nullptr);
}

TEST(AnalysisGate, NodeOffModeSkipsAnalysisEntirely) {
    auto vendor = test_vendor(26);
    platform::NodeConfig config;
    config.admission_mode = boot::AdmissionMode::kOff;
    platform::Node node(config);
    node.provision(vendor.public_key(), to_bytes("root"));
    EXPECT_EQ(node.admission_gate, nullptr);

    const boot::FirmwareImage bad =
        signed_image(vendor, wx_implant_program(), "implant");
    EXPECT_TRUE(node.secure_boot({bad}).success);
    EXPECT_EQ(node.metrics.find_counter("cres_analysis_images_total"),
              nullptr);
}

}  // namespace
}  // namespace cres::analysis
