// SIEM export layer tests: KATs for the RFC 5424 classification
// tables (core/event.h), the bounded per-device staging buffer, and
// the hash-chained fleet export stream (obs/siem.h) — including a
// whole-stream 1-byte-flip sweep for the tamper-evidence contract.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/event.h"
#include "obs/metrics.h"
#include "obs/siem.h"
#include "obs/syslog.h"
#include "util/bytes.h"

namespace cres::obs {
namespace {

// --- RFC 5424 classification KATs ------------------------------------------
// Every mapping is pinned as a known-answer test: both framings (the
// JSONL log sink and the SIEM stream) classify through these tables,
// so a silent change would re-label the whole estate's history.

TEST(SyslogKat, EverySeverityMappingPinned) {
    using core::EventSeverity;
    EXPECT_EQ(core::syslog_severity(EventSeverity::kInfo), 6);
    EXPECT_EQ(core::syslog_severity(EventSeverity::kAdvisory), 5);
    EXPECT_EQ(core::syslog_severity(EventSeverity::kAlert), 4);
    EXPECT_EQ(core::syslog_severity(EventSeverity::kCritical), 2);
}

TEST(SyslogKat, EveryFacilityMappingPinned) {
    using core::EventCategory;
    const std::pair<EventCategory, std::uint8_t> table[] = {
        {EventCategory::kBusViolation, 16}, {EventCategory::kControlFlow, 17},
        {EventCategory::kMemory, 18},       {EventCategory::kDataFlow, 19},
        {EventCategory::kPeripheral, 20},   {EventCategory::kTiming, 21},
        {EventCategory::kNetwork, 22},      {EventCategory::kEnvironment, 23},
        {EventCategory::kBoot, 0},          {EventCategory::kSystem, 13},
    };
    static_assert(std::size(table) == core::kEventCategoryCount);
    for (const auto& [category, facility] : table) {
        EXPECT_EQ(core::syslog_facility(category), facility)
            << core::category_name(category);
    }
}

TEST(SyslogKat, PriComposition) {
    using core::EventCategory;
    using core::EventSeverity;
    // PRI = facility * 8 + severity (RFC 5424 §6.2.1).
    EXPECT_EQ(core::syslog_pri(EventCategory::kNetwork,
                               EventSeverity::kAlert),
              22 * 8 + 4);
    EXPECT_EQ(core::syslog_pri(EventCategory::kBoot,
                               EventSeverity::kCritical),
              0 * 8 + 2);
    EXPECT_EQ(core::syslog_pri(EventCategory::kSystem,
                               EventSeverity::kInfo),
              13 * 8 + 6);
    EXPECT_EQ(rfc5424::pri(rfc5424::kFacLocal0, rfc5424::kWarning), 132);
    // The severity operand is masked to 3 bits.
    EXPECT_EQ(rfc5424::pri(0, 0xff), 7);
}

TEST(SyslogKat, KeywordsPinned) {
    const std::string_view severities[] = {"emerg",   "alert",  "crit",
                                           "err",     "warning", "notice",
                                           "info",    "debug"};
    for (std::uint8_t s = 0; s < 8; ++s) {
        EXPECT_EQ(rfc5424::severity_keyword(s), severities[s]) << int(s);
    }
    EXPECT_EQ(rfc5424::facility_keyword(rfc5424::kFacKern), "kern");
    EXPECT_EQ(rfc5424::facility_keyword(rfc5424::kFacAudit), "audit");
    EXPECT_EQ(rfc5424::facility_keyword(rfc5424::kFacLocal6), "local6");
    EXPECT_EQ(rfc5424::facility_keyword(42), "?");
}

TEST(SiemKat, KindNamesAndMsgidsPinned) {
    const std::pair<SiemKind, std::pair<std::string_view, std::string_view>>
        table[] = {
            {SiemKind::kEvent, {"event", "EVT"}},
            {SiemKind::kAlert, {"alert", "ALRT"}},
            {SiemKind::kState, {"state", "STATE"}},
            {SiemKind::kIncidentOpen, {"incident-open", "INCOPEN"}},
            {SiemKind::kIncidentClose, {"incident-close", "INCCLOSE"}},
            {SiemKind::kEvidenceHead, {"evidence-head", "EVHEAD"}},
            {SiemKind::kCampaign, {"campaign", "CAMPAIGN"}},
        };
    static_assert(std::size(table) == kSiemKindCount);
    for (const auto& [kind, names] : table) {
        EXPECT_EQ(siem_kind_name(kind), names.first);
        EXPECT_EQ(siem_kind_msgid(kind), names.second);
    }
}

// --- SiemBuffer: bounded staging with explicit backpressure -----------------

SiemEvent sample_event(std::uint64_t at) {
    SiemEvent event;
    event.at = at;
    event.kind = SiemKind::kEvent;
    event.severity = rfc5424::kNotice;
    event.facility = rfc5424::kFacLocal6;
    event.category = "network";
    event.source = "network-monitor";
    event.resource = "m2m";
    event.detail = "frame failed authentication";
    event.a = at;
    return event;
}

TEST(SiemBuffer, BoundedWithDropAccounting) {
    MetricsRegistry registry;
    SiemBuffer buffer(2);
    buffer.bind_metrics(registry);
    EXPECT_TRUE(buffer.enabled());

    EXPECT_TRUE(buffer.push(sample_event(1)));
    EXPECT_TRUE(buffer.push(sample_event(2)));
    EXPECT_FALSE(buffer.push(sample_event(3)));  // Full: dropped.
    EXPECT_EQ(buffer.size(), 2u);
    EXPECT_EQ(buffer.dropped(), 1u);
    EXPECT_EQ(registry.counter("cres_siem_dropped_total").value(), 1u);

    // Staged records keep their order and payloads; clear() frees the
    // slots.
    const std::deque<SiemEvent>& staged = buffer.staged();
    ASSERT_EQ(staged.size(), 2u);
    EXPECT_EQ(staged[0].at, 1u);
    EXPECT_EQ(staged[1].at, 2u);
    EXPECT_EQ(staged[1].detail, "frame failed authentication");
    buffer.clear();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_TRUE(buffer.push(sample_event(4)));
}

TEST(SiemBuffer, EarlyDropsPublishOnBindWithoutDoubleCount) {
    SiemBuffer buffer(1);
    EXPECT_TRUE(buffer.push(sample_event(1)));
    EXPECT_FALSE(buffer.push(sample_event(2)));  // Dropped before binding.
    EXPECT_EQ(buffer.dropped(), 1u);

    MetricsRegistry registry;
    buffer.bind_metrics(registry);
    EXPECT_EQ(registry.counter("cres_siem_dropped_total").value(), 1u);
    // Re-binding the same buffer must not double-publish old drops.
    buffer.bind_metrics(registry);
    EXPECT_EQ(registry.counter("cres_siem_dropped_total").value(), 1u);

    EXPECT_FALSE(buffer.push(sample_event(3)));
    EXPECT_EQ(registry.counter("cres_siem_dropped_total").value(), 2u);
}

TEST(SiemBuffer, ZeroCapacityDisablesButStillCounts) {
    SiemBuffer buffer(0);
    EXPECT_FALSE(buffer.enabled());
    EXPECT_FALSE(buffer.push(sample_event(1)));
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_EQ(buffer.dropped(), 1u);
}

// --- SiemStream: hash-chained dual-framed export ----------------------------

Bytes test_key() { return Bytes(32, 0xab); }

SiemStream sample_stream() {
    SiemStream stream(test_key());
    stream.append(0, "device-0", sample_event(100));
    SiemEvent alert = sample_event(250);
    alert.kind = SiemKind::kAlert;
    alert.severity = rfc5424::kWarning;
    alert.detail = "replay burst on \"m2m\" [sequence 2]";  // Escaped chars.
    stream.append(1, "device-1", alert);
    SiemBatch anchor;
    anchor.reset(stream.records());
    anchor.add_evidence_head(1, "device-1", 300, 7, "00ff00ff00ff00ff");
    stream.commit(anchor);
    return stream;
}

TEST(SiemStream, RecordFramingAndChainVerify) {
    const SiemStream stream = sample_stream();
    EXPECT_EQ(stream.records(), 3u);

    const std::string& jsonl = stream.jsonl();
    EXPECT_EQ(jsonl.compare(0, SiemStream::header().size(),
                            SiemStream::header()),
              0);
    // Fixed field order, severity/facility as numeric RFC 5424 codes,
    // PRI precomputed from them.
    EXPECT_NE(jsonl.find("\"seq\":0,\"at\":100,\"device\":\"device-0\","
                         "\"index\":0,\"kind\":\"event\",\"pri\":181,"
                         "\"severity\":5,\"facility\":22"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"kind\":\"evidence-head\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"detail\":\"00ff00ff00ff00ff\",\"a\":7"),
              std::string::npos);

    const SiemVerifyResult verdict =
        SiemStream::verify(jsonl, test_key());
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    EXPECT_EQ(verdict.records, 3u);
    // The last record's chain field is the stream head.
    EXPECT_NE(jsonl.find(stream.head_hex()), std::string::npos);
}

TEST(SiemStream, SyslogFramingRendersPriAndStructuredData) {
    const SiemStream stream = sample_stream();
    const std::string& syslog = stream.syslog();
    // <PRI>1 - HOSTNAME APP-NAME - MSGID [cres ...] detail
    EXPECT_EQ(syslog.compare(0, 7, "<181>1 "), 0);
    EXPECT_NE(syslog.find("<180>1 - device-1 network-monitor - ALRT "),
              std::string::npos);
    EXPECT_NE(syslog.find("[cres at=\"100\" category=\"network\" "
                          "resource=\"m2m\" a=\"100\" b=\"0\"]"),
              std::string::npos);
    EXPECT_NE(syslog.find("- EVHEAD "), std::string::npos);
    // One line per record.
    std::size_t lines = 0;
    for (const char c : syslog) lines += (c == '\n') ? 1 : 0;
    EXPECT_EQ(lines, stream.records());
}

TEST(SiemStream, TracedRecordsRenderTraceObjectAndStillChain) {
    SiemStream stream(test_key());
    stream.append(0, "device-0", sample_event(100));  // Untraced.
    SiemEvent traced = sample_event(200);
    traced.traced = true;
    traced.trace_origin = 3;
    traced.trace_hop = 2;
    traced.trace_span = (std::uint64_t{3} << 32) | 9;
    traced.trace_parent = (std::uint64_t{1} << 32) | 4;
    stream.append(1, "device-1", traced);

    const std::string& jsonl = stream.jsonl();
    // The trace object rides after "b" with the propagated context;
    // exactly one record carries it.
    EXPECT_NE(jsonl.find(",\"trace\":{\"origin\":3,\"hop\":2,\"span\":" +
                         std::to_string((std::uint64_t{3} << 32) | 9) +
                         ",\"parent\":" +
                         std::to_string((std::uint64_t{1} << 32) | 4) + "}"),
              std::string::npos);
    EXPECT_EQ(jsonl.find("\"trace\""), jsonl.rfind("\"trace\""));
    // The chain covers the trace bytes like any other body bytes.
    EXPECT_TRUE(SiemStream::verify(jsonl, test_key()).ok);
    std::string tampered = jsonl;
    const std::size_t hop = tampered.find("\"hop\":2");
    ASSERT_NE(hop, std::string::npos);
    tampered[hop + 6] = '5';
    EXPECT_FALSE(SiemStream::verify(tampered, test_key()).ok);
}

TEST(SiemStream, UntracedStreamsCarryNoTraceBytes) {
    // The v1 compatibility contract: a stream of untraced records is
    // byte-for-byte what a tracing-unaware build would have produced.
    const SiemStream stream = sample_stream();
    EXPECT_EQ(stream.jsonl().find("\"trace\""), std::string::npos);
    EXPECT_EQ(stream.syslog().find("trace"), std::string::npos);
}

TEST(SiemStream, EveryOneByteFlipBreaksTheChain) {
    const SiemStream stream = sample_stream();
    const std::string& jsonl = stream.jsonl();
    ASSERT_TRUE(SiemStream::verify(jsonl, test_key()).ok);
    // The tamper-evidence contract, exhaustively: flipping the low bit
    // of ANY byte — header, body, chain hex or line framing — fails.
    for (std::size_t i = 0; i < jsonl.size(); ++i) {
        std::string tampered = jsonl;
        tampered[i] ^= 0x01;
        EXPECT_FALSE(SiemStream::verify(tampered, test_key()).ok)
            << "byte " << i;
    }
}

TEST(SiemStream, WrongKeyAndMalformedStreamsFail) {
    const SiemStream stream = sample_stream();
    const Bytes wrong_key(32, 0xac);
    const SiemVerifyResult wrong =
        SiemStream::verify(stream.jsonl(), wrong_key);
    EXPECT_FALSE(wrong.ok);
    EXPECT_EQ(wrong.bad_line, 2u);  // First record after the header.
    EXPECT_EQ(wrong.reason, "chain mismatch");

    EXPECT_FALSE(SiemStream::verify("", test_key()).ok);
    EXPECT_FALSE(SiemStream::verify("{\"format\":\"bogus\"}\n",
                                    test_key())
                     .ok);
    // A record with the chain field ripped off is malformed.
    std::string no_chain(SiemStream::header());
    no_chain += "\n{\"seq\":0}\n";
    const SiemVerifyResult verdict =
        SiemStream::verify(no_chain, test_key());
    EXPECT_FALSE(verdict.ok);
    EXPECT_EQ(verdict.reason, "record has no chain field");
}

TEST(SiemStream, HeaderOnlyStreamIsValidAndEmpty) {
    std::string header_only(SiemStream::header());
    header_only += '\n';
    const SiemVerifyResult verdict =
        SiemStream::verify(header_only, test_key());
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.records, 0u);
}

TEST(SiemStream, ChainDependsOnRecordOrder) {
    // Same two records, opposite order: different heads (the chain
    // pins the fleet's deterministic device-index drain order).
    SiemStream ab(test_key());
    ab.append(0, "a", sample_event(1));
    ab.append(1, "b", sample_event(2));
    SiemStream ba(test_key());
    ba.append(1, "b", sample_event(2));
    ba.append(0, "a", sample_event(1));
    EXPECT_NE(ab.head_hex(), ba.head_hex());
}

// --- Byte pin: the exact cres-siem-v1 rendering ----------------------------
// data/siem_stream.golden holds golden_stream()'s JSONL export followed
// by its syslog export, as rendered before the SIEM drain was split into
// parallel render and serial chain halves. Every record class the fleet
// emits is covered: JSON and SD-PARAM escapes, control bytes (syslog
// passes them raw), empty device and source (syslog NILVALUE), traced
// and untraced records, a drop gap, an evidence head and a campaign.

SiemStream golden_stream() {
    SiemStream stream(test_key());
    SiemEvent escaped = sample_event(100);
    escaped.category = "net\"work]";
    escaped.resource = std::string("m2m\\chan\x01nel\x1f\0", 14);
    escaped.detail =
        "quote \" backslash \\ bracket ] tab \t cr \r newline \n "
        "control \x01 end";
    escaped.a = 18446744073709551615ull;
    stream.append(0, "device-0", escaped);

    SiemEvent traced = sample_event(250);
    traced.kind = SiemKind::kAlert;
    traced.severity = rfc5424::kWarning;
    traced.a = 7;
    traced.b = 2;
    traced.traced = true;
    traced.trace_origin = 3;
    traced.trace_hop = 2;
    traced.trace_span = (std::uint64_t{3} << 32) | 9;
    traced.trace_parent = (std::uint64_t{1} << 32) | 4;
    stream.append(1, "device-1", traced);

    SiemEvent anonymous;
    anonymous.at = 260;
    anonymous.kind = SiemKind::kState;
    anonymous.severity = rfc5424::kInformational;
    anonymous.facility = rfc5424::kFacKern;
    anonymous.category = "boot";
    stream.append(2, "", anonymous);

    // The drop gap and evidence head the fleet drain frames for a
    // device, rendered as one batch and chained by commit().
    Bytes evidence_head(32);
    for (std::size_t i = 0; i < evidence_head.size(); ++i) {
        evidence_head[i] = static_cast<std::uint8_t>(i * 37 + 5);
    }
    SiemBatch batch;
    batch.reset(stream.records());
    batch.add_drop_gap(1, "device-1", 400, 3, 5);
    batch.add_evidence_head(1, "device-1", 400, 7, to_hex(evidence_head));
    stream.commit(batch);

    // A fleet campaign record, framed as FleetMonitor::flush does.
    SiemEvent campaign;
    campaign.at = 5000;
    campaign.kind = SiemKind::kCampaign;
    campaign.severity = rfc5424::kAlert;
    campaign.facility = rfc5424::kFacAudit;
    campaign.category = "system";
    campaign.source = "fleet-monitor";
    campaign.resource = "worm";
    campaign.detail =
        "4 devices; patient zero device 0 (depth 2, exact); tree "
        "{\"edges\": [0->1]}";
    campaign.a = 4;
    campaign.b = 0x1234abcd;
    stream.append(SiemStream::kFleetIndex, "fleet", campaign);
    return stream;
}

TEST(SiemStream, RenderingMatchesGoldenBytes) {
    const std::string path =
        std::string(CRES_OBS_GOLDEN_DIR) + "/siem_stream.golden";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream contents;
    contents << in.rdbuf();
    const std::string golden = contents.str();
    // Every JSONL line opens with `{`; the syslog part starts at the
    // first line that opens with `<`.
    const std::size_t split = golden.find("\n<");
    ASSERT_NE(split, std::string::npos);

    const SiemStream stream = golden_stream();
    EXPECT_EQ(stream.records(), 6u);
    EXPECT_EQ(stream.jsonl(), golden.substr(0, split + 1));
    EXPECT_EQ(stream.syslog(), golden.substr(split + 1));
    EXPECT_EQ(stream.head_hex(),
              "2cae35f2924b755f1f50e8abd0e6f4ab626b756f102b41366079bda944a279b1");
    EXPECT_TRUE(SiemStream::verify(stream.jsonl(), test_key()).ok);
}

TEST(SiemStream, CommitRejectsABatchRenderedForAnotherSeq) {
    SiemStream stream(test_key());
    stream.append(0, "device-0", sample_event(1));
    SiemBatch stale;
    stale.reset(0);  // Rendered as if the stream were still empty.
    stale.add(0, "device-0", sample_event(2));
    EXPECT_THROW(stream.commit(stale), std::logic_error);
    EXPECT_EQ(stream.records(), 1u);
}

}  // namespace
}  // namespace cres::obs
