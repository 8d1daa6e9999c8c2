#include "analysis/absint.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "analysis/verifier.h"

namespace cres::analysis {

namespace {

using isa::Instruction;
using isa::Opcode;

constexpr std::uint32_t kMax32 = 0xffffffffu;
constexpr unsigned kSp = 13;
constexpr unsigned kLr = 14;
// Depth values below this are treated as "arbitrarily far above entry".
constexpr std::int64_t kDepthFloor = -(std::int64_t{1} << 40);
// Joins tolerated at one block before widening accelerates convergence.
constexpr std::size_t kWidenAfter = 12;

std::uint32_t u32(std::uint64_t v) noexcept {
    return static_cast<std::uint32_t>(v);
}

std::uint8_t common_align(std::uint8_t a, std::uint8_t b) noexcept {
    return a < b ? a : b;
}

// Smallest 2^k-1 mask covering v (so x|y and x^y stay below it when
// both operands do).
std::uint32_t mask_cover(std::uint32_t v) noexcept {
    v |= v >> 1;
    v |= v >> 2;
    v |= v >> 4;
    v |= v >> 8;
    v |= v >> 16;
    return v;
}

std::uint32_t eval_alu(Opcode op, std::uint32_t a, std::uint32_t b) noexcept {
    switch (op) {
        case Opcode::kAdd: return a + b;
        case Opcode::kSub: return a - b;
        case Opcode::kAnd: return a & b;
        case Opcode::kOr: return a | b;
        case Opcode::kXor: return a ^ b;
        case Opcode::kShl: return a << (b & 31u);
        case Opcode::kShr: return a >> (b & 31u);
        case Opcode::kSra:
            return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                              (b & 31u));
        case Opcode::kMul: return a * b;
        case Opcode::kSlt:
            return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b)
                       ? 1u
                       : 0u;
        case Opcode::kSltu: return a < b ? 1u : 0u;
        default: return 0;
    }
}

// Addition is exact unless the sum straddles the 2^32 wrap; the
// congruence survives wrap because align divides 2^32.
Interval iv_add(const Interval& a, const Interval& b) noexcept {
    const std::uint8_t align = common_align(a.align, b.align);
    const auto phase = static_cast<std::uint8_t>(
        (static_cast<unsigned>(a.phase) + b.phase) & (align - 1u));
    const std::uint64_t lo = std::uint64_t{a.lo} + b.lo;
    const std::uint64_t hi = std::uint64_t{a.hi} + b.hi;
    if (hi <= kMax32 || lo > kMax32) return {u32(lo), u32(hi), align, phase};
    return {0, kMax32, align, phase};
}

Interval iv_sub(const Interval& a, const Interval& b) noexcept {
    const std::uint8_t align = common_align(a.align, b.align);
    const auto phase = static_cast<std::uint8_t>(
        (static_cast<unsigned>(a.phase) - b.phase) & (align - 1u));
    const std::int64_t lo = std::int64_t{a.lo} - b.hi;
    const std::int64_t hi = std::int64_t{a.hi} - b.lo;
    if (lo >= 0 || hi < 0) {
        return {u32(static_cast<std::uint64_t>(lo)),
                u32(static_cast<std::uint64_t>(hi)), align, phase};
    }
    return {0, kMax32, align, phase};
}

Interval iv_shl(const Interval& a, unsigned c) noexcept {
    if (c == 0) return a;
    const unsigned scaled = static_cast<unsigned>(a.align)
                            << (c < 2 ? c : 2u);
    const auto align = static_cast<std::uint8_t>(scaled > 4 ? 4u : scaled);
    const auto phase = static_cast<std::uint8_t>(
        (static_cast<unsigned>(a.phase) << (c < 31 ? c : 31u)) & (align - 1u));
    const std::uint64_t hi = std::uint64_t{a.hi} << c;
    if (hi <= kMax32) return {a.lo << c, u32(hi), align, phase};
    return {0, kMax32, align, phase};
}

Interval iv_shr(const Interval& a, unsigned c) noexcept {
    if (c == 0) return a;
    return Interval::range(a.lo >> c, a.hi >> c);
}

Interval iv_sra(const Interval& a, unsigned c) noexcept {
    if (c == 0) return a;
    if (a.hi < 0x80000000u) return Interval::range(a.lo >> c, a.hi >> c);
    if (a.lo >= 0x80000000u) {
        // All-negative: arithmetic shift is monotone and sign-preserving,
        // so unsigned ordering of the endpoints is preserved too.
        const auto s = [c](std::uint32_t v) {
            return static_cast<std::uint32_t>(static_cast<std::int32_t>(v) >>
                                              c);
        };
        return Interval::range(s(a.lo), s(a.hi));
    }
    return Interval::top();
}

Interval iv_mul(const Interval& a, const Interval& b) noexcept {
    const std::uint64_t hi = std::uint64_t{a.hi} * b.hi;
    if (hi <= kMax32) return Interval::range(a.lo * b.lo, u32(hi));
    return Interval::top();
}

Interval iv_alu(Opcode op, const Interval& a, const Interval& b) noexcept {
    if (a.singleton() && b.singleton())
        return Interval::constant(eval_alu(op, a.lo, b.lo));
    switch (op) {
        case Opcode::kAdd: return iv_add(a, b);
        case Opcode::kSub: return iv_sub(a, b);
        case Opcode::kAnd: return Interval::range(0, std::min(a.hi, b.hi));
        case Opcode::kOr:
            return Interval::range(std::max(a.lo, b.lo),
                                   mask_cover(std::max(a.hi, b.hi)));
        case Opcode::kXor:
            return Interval::range(0, mask_cover(std::max(a.hi, b.hi)));
        case Opcode::kShl:
            return b.singleton() ? iv_shl(a, b.lo & 31u) : Interval::top();
        case Opcode::kShr:
            return b.singleton() ? iv_shr(a, b.lo & 31u)
                                 : Interval::range(0, a.hi);
        case Opcode::kSra:
            return b.singleton() ? iv_sra(a, b.lo & 31u) : Interval::top();
        case Opcode::kMul: return iv_mul(a, b);
        case Opcode::kSlt:
        case Opcode::kSltu: return Interval::range(0, 1);
        default: return Interval::top();
    }
}

// Whole access range [a.lo, a.hi + size - 1] inside one segment.
const Segment* covering_segment(const SegmentMap& map, const Interval& a,
                                std::uint32_t size) noexcept {
    if (a.hi > kMax32 - (size - 1)) return nullptr;
    for (const Segment& seg : map.segments) {
        if (seg.size == 0) continue;
        if (a.lo >= seg.base &&
            std::uint64_t{a.hi} + size <= std::uint64_t{seg.base} + seg.size)
            return &seg;
    }
    return nullptr;
}

bool range_intersects(const Segment& seg, std::uint64_t lo,
                      std::uint64_t hi) noexcept {
    return seg.size != 0 && seg.base <= hi &&
           lo <= std::uint64_t{seg.base} + seg.size - 1;
}

// Alignment proof: every concrete address is a multiple of the width.
bool provably_aligned(const Interval& a, std::uint32_t size) noexcept {
    if (size <= 1) return true;
    if (a.singleton()) return a.lo % size == 0;
    return a.align >= size && (a.phase % size) == 0;
}

bool access_proven(const SegmentMap& map, const Interval& a,
                   std::uint32_t size, bool is_store,
                   const Segment*& out_seg) noexcept {
    if (!provably_aligned(a, size)) return false;
    const Segment* seg = covering_segment(map, a, size);
    if (seg == nullptr || seg->secure) return false;
    if (is_store && !seg->writable) return false;
    out_seg = seg;
    return true;
}

// Facts one instruction step exposes to the walker.
struct StepFacts {
    bool is_mem = false;
    bool is_store = false;
    std::uint32_t size = 0;
    Interval addr;                    // Effective address interval.
    std::uint8_t addr_taint = 0;      // Taint of the base register.
    mem::Addr addr_taint_origin = 0;
    std::uint8_t csrw_taint = 0;      // Taint of a csrw source register.
    mem::Addr csrw_taint_origin = 0;
    std::uint8_t jump_taint = 0;      // Taint of a jalr base register.
    mem::Addr jump_taint_origin = 0;
};

void clobber_regs(AbsState& st) noexcept {
    for (unsigned r = 1; r < 16; ++r) st.regs[r] = Interval::top();
    st.taint.clear();
}

void normalize_depth(AbsState& st) noexcept {
    if (!st.depth_bounded) {
        st.depth_lo = 0;
        st.depth_hi = 0;
    } else if (st.depth_lo < kDepthFloor) {
        st.depth_lo = kDepthFloor;
    }
}

// Abstract transfer for one instruction. Mirrors Cpu::exec_one for
// singleton operands; interval rules over-approximate everything else.
void step_insn(AbsState& st, const Instruction& insn, mem::Addr pc,
               const SegmentMap& segments, StepFacts& facts) {
    const Opcode op = insn.opcode;
    const unsigned rd = insn.rd & 15u;
    const unsigned rs1 = insn.rs1 & 15u;
    const unsigned rs2 = insn.rs2 & 15u;
    const std::uint32_t uimm = insn.imm;
    const auto simm = static_cast<std::uint32_t>(insn.simm());

    // Tracks the stack-depth interval across writes to sp. `fresh`
    // (a new constant frame pointer) mirrors the CFG builder's
    // stack-reset semantics.
    const auto note_sp_write = [&](const Interval& result, bool is_push) {
        if (rd != kSp) return;
        if (is_push) {
            if (!st.depth_bounded) return;
            const auto growth =
                -static_cast<std::int64_t>(static_cast<std::int32_t>(simm));
            st.depth_lo += growth;
            st.depth_hi += growth;
            normalize_depth(st);
        } else if (result.singleton()) {
            st.depth_lo = 0;
            st.depth_hi = 0;
            st.depth_bounded = true;
        } else {
            st.depth_bounded = false;
            normalize_depth(st);
        }
    };

    switch (op) {
        case Opcode::kNop:
        case Opcode::kHalt:
        case Opcode::kWfi:
        case Opcode::kMret:
        case Opcode::kSret:
            break;
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kAnd:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kShr:
        case Opcode::kSra:
        case Opcode::kMul:
        case Opcode::kSlt:
        case Opcode::kSltu: {
            const Interval res = iv_alu(op, st.reg(rs1), st.reg(rs2));
            note_sp_write(res, false);
            st.set_reg(rd, res);
            st.taint.combine(rd, rs1, rs2);
            break;
        }
        case Opcode::kAddi: {
            const Interval res =
                iv_alu(Opcode::kAdd, st.reg(rs1), Interval::constant(simm));
            note_sp_write(res, rs1 == kSp);
            st.set_reg(rd, res);
            st.taint.combine(rd, rs1, 0);
            break;
        }
        case Opcode::kAndi:
        case Opcode::kOri:
        case Opcode::kXori: {
            const Opcode base = op == Opcode::kAndi  ? Opcode::kAnd
                                : op == Opcode::kOri ? Opcode::kOr
                                                     : Opcode::kXor;
            const Interval res =
                iv_alu(base, st.reg(rs1), Interval::constant(uimm));
            note_sp_write(res, false);
            st.set_reg(rd, res);
            st.taint.combine(rd, rs1, 0);
            break;
        }
        case Opcode::kShli:
        case Opcode::kShri: {
            const Interval res = op == Opcode::kShli
                                     ? iv_shl(st.reg(rs1), uimm & 31u)
                                     : iv_shr(st.reg(rs1), uimm & 31u);
            note_sp_write(res, false);
            st.set_reg(rd, res);
            st.taint.combine(rd, rs1, 0);
            break;
        }
        case Opcode::kLui: {
            const Interval res = Interval::constant(uimm << 16);
            note_sp_write(res, false);
            st.set_reg(rd, res);
            st.taint.set(rd, 0, 0);
            break;
        }
        case Opcode::kLw:
        case Opcode::kLh:
        case Opcode::kLb: {
            const Interval addr =
                iv_alu(Opcode::kAdd, st.reg(rs1), Interval::constant(simm));
            facts.is_mem = true;
            facts.size = op == Opcode::kLw ? 4u : op == Opcode::kLh ? 2u : 1u;
            facts.addr = addr;
            facts.addr_taint = st.taint.mask[rs1];
            facts.addr_taint_origin = st.taint.origin[rs1];
            // Loaded values are opaque except for the zero-extension
            // bound of narrow widths.
            const Interval val = op == Opcode::kLw ? Interval::top()
                                 : op == Opcode::kLh
                                     ? Interval::range(0, 0xffffu)
                                     : Interval::range(0, 0xffu);
            note_sp_write(val, false);
            st.set_reg(rd, val);
            // Taint: sources (a provable read of an untrusted segment)
            // plus derived-pointer flow from a tainted base.
            std::uint8_t bits = st.taint.mask[rs1];
            mem::Addr origin = st.taint.origin[rs1];
            if (const Segment* seg =
                    covering_segment(segments, addr, facts.size)) {
                const std::uint8_t src = taint_source_for_segment(seg->name);
                if (src != 0) {
                    bits |= src;
                    origin = origin == 0 ? pc : std::min(origin, pc);
                }
            }
            st.taint.set(rd, bits, origin);
            break;
        }
        case Opcode::kSw:
        case Opcode::kSh:
        case Opcode::kSb: {
            facts.is_mem = true;
            facts.is_store = true;
            facts.size = op == Opcode::kSw ? 4u : op == Opcode::kSh ? 2u : 1u;
            facts.addr =
                iv_alu(Opcode::kAdd, st.reg(rs1), Interval::constant(simm));
            facts.addr_taint = st.taint.mask[rs1];
            facts.addr_taint_origin = st.taint.origin[rs1];
            break;
        }
        case Opcode::kBeq:
        case Opcode::kBne:
        case Opcode::kBlt:
        case Opcode::kBge:
        case Opcode::kBltu:
        case Opcode::kBgeu:
            break;  // Refined on the out-edges, not here.
        case Opcode::kJal:
        case Opcode::kJalr: {
            if (op == Opcode::kJalr) {
                // Read the base's taint before the link write (rd may
                // alias rs1).
                facts.jump_taint = st.taint.mask[rs1];
                facts.jump_taint_origin = st.taint.origin[rs1];
            }
            const Interval link = Interval::constant(u32(pc) + 4u);
            note_sp_write(link, false);
            st.set_reg(rd, link);
            st.taint.set(rd, 0, 0);
            break;
        }
        case Opcode::kCsrr: {
            note_sp_write(Interval::top(), false);
            st.set_reg(rd, Interval::top());
            st.taint.set(rd, 0, 0);
            break;
        }
        case Opcode::kCsrw:
            facts.csrw_taint = st.taint.mask[rs1];
            facts.csrw_taint_origin = st.taint.origin[rs1];
            break;
        case Opcode::kEcall:
        case Opcode::kSmc:
            // Service semantics are outside the image: assume every
            // register is rewritten (sound, keeps proofs honest). The
            // depth interval is kept — services preserve the frame.
            clobber_regs(st);
            break;
        default:
            break;
    }
}

// Return-site state after a call: callee may rewrite every register
// (r0 aside) but, per the PR 5 stack convention, restores sp.
AbsState return_site_state(const AbsState& at_call) {
    AbsState out;
    out.depth_lo = at_call.depth_lo;
    out.depth_hi = at_call.depth_hi;
    out.depth_bounded = at_call.depth_bounded;
    return out;
}

// Narrows comparand intervals along a branch edge. Returns false when
// the edge is statically infeasible (states then must not be merged).
bool refine_branch(AbsState& st, const Instruction& insn, bool taken) {
    const unsigned xi = insn.rs1 & 15u;
    const unsigned yi = insn.rd & 15u;
    Interval x = st.reg(xi);
    Interval y = st.reg(yi);
    Opcode op = insn.opcode;

    // Signed compares refine only when both sides are provably
    // non-negative (then signed and unsigned orders agree).
    if (op == Opcode::kBlt || op == Opcode::kBge) {
        if (x.hi >= 0x80000000u || y.hi >= 0x80000000u) return true;
        op = op == Opcode::kBlt ? Opcode::kBltu : Opcode::kBgeu;
    }

    const bool eq_edge = (op == Opcode::kBeq && taken) ||
                         (op == Opcode::kBne && !taken);
    const bool ne_edge = (op == Opcode::kBne && taken) ||
                         (op == Opcode::kBeq && !taken);
    if (eq_edge) {
        const std::uint8_t c = common_align(x.align, y.align);
        if (((x.phase ^ y.phase) & (c - 1u)) != 0) return false;
        Interval m;
        m.lo = std::max(x.lo, y.lo);
        m.hi = std::min(x.hi, y.hi);
        if (m.lo > m.hi) return false;
        if (x.align >= y.align) {
            m.align = x.align;
            m.phase = static_cast<std::uint8_t>(x.phase & (x.align - 1u));
        } else {
            m.align = y.align;
            m.phase = static_cast<std::uint8_t>(y.phase & (y.align - 1u));
        }
        st.set_reg(xi, m);
        st.set_reg(yi, m);
        return true;
    }
    if (ne_edge) {
        if (x.singleton() && y.singleton() && x.lo == y.lo) return false;
        if (y.singleton() && !x.singleton()) {
            if (x.lo == y.lo) {
                x.lo += 1;
                st.set_reg(xi, x);
            } else if (x.hi == y.lo) {
                x.hi -= 1;
                st.set_reg(xi, x);
            }
        }
        if (x.singleton() && !y.singleton()) {
            if (y.lo == x.lo) {
                y.lo += 1;
                st.set_reg(yi, y);
            } else if (y.hi == x.lo) {
                y.hi -= 1;
                st.set_reg(yi, y);
            }
        }
        return true;
    }

    const bool lt_edge = (op == Opcode::kBltu && taken) ||
                         (op == Opcode::kBgeu && !taken);
    const bool ge_edge = (op == Opcode::kBgeu && taken) ||
                         (op == Opcode::kBltu && !taken);
    if (lt_edge) {  // x < y
        if (y.hi == 0 || x.lo == kMax32) return false;
        x.hi = std::min(x.hi, y.hi - 1);
        y.lo = std::max(y.lo, x.lo + 1);
        if (x.lo > x.hi || y.lo > y.hi) return false;
        st.set_reg(xi, x);
        st.set_reg(yi, y);
        return true;
    }
    if (ge_edge) {  // x >= y
        x.lo = std::max(x.lo, y.lo);
        y.hi = std::min(y.hi, x.hi);
        if (x.lo > x.hi || y.lo > y.hi) return false;
        st.set_reg(xi, x);
        st.set_reg(yi, y);
        return true;
    }
    return true;
}

AbsState join_states(const AbsState& a, const AbsState& b) {
    AbsState out = a;
    for (unsigned r = 1; r < 16; ++r)
        out.regs[r] = interval_join(a.regs[r], b.regs[r]);
    out.taint.join(b.taint);
    out.depth_bounded = a.depth_bounded && b.depth_bounded;
    out.depth_lo = std::min(a.depth_lo, b.depth_lo);
    out.depth_hi = std::max(a.depth_hi, b.depth_hi);
    normalize_depth(out);
    return out;
}

// Jump moved bounds to their extremes so chains of joins terminate.
// Congruence and taint lattices are finite and need no widening.
void widen_state(AbsState& j, const AbsState& old, bool depth_clamped) {
    for (unsigned r = 1; r < 16; ++r) {
        Interval& v = j.regs[r];
        const Interval& o = old.regs[r];
        if (v.lo < o.lo) v.lo = 0;
        if (v.hi > o.hi) v.hi = kMax32;
    }
    if (!depth_clamped) {
        if (j.depth_lo < old.depth_lo) j.depth_lo = kDepthFloor;
        if (j.depth_hi > old.depth_hi) j.depth_bounded = false;
        normalize_depth(j);
    }
}

// A counted self-loop bound: "this block back-edges into itself at
// most `trips` times", inferred from a bne-vs-zero guard whose counter
// is a single constant-step decrement.
struct TripHint {
    std::uint64_t trips = 0;
    unsigned counter = 0;
};

struct Fixpoint {
    const Cfg& cfg;
    const SegmentMap& segments;
    std::map<mem::Addr, AbsState> entry;
    // Joins excluding self-edges: the loop-entry view used for trip
    // inference and as the base of depth clamps.
    std::map<mem::Addr, AbsState> entry_other;
    std::map<mem::Addr, std::size_t> visits;
    std::set<mem::Addr> worklist;
    std::map<mem::Addr, TripHint> hints;
    std::size_t iterations = 0;
    bool capped = false;

    Fixpoint(const Cfg& c, const SegmentMap& s) : cfg(c), segments(s) {}

    void merge(mem::Addr from, mem::Addr to, AbsState incoming) {
        if (cfg.blocks.find(to) == cfg.blocks.end()) return;
        const bool self_edge = from == to;
        normalize_depth(incoming);
        if (self_edge) apply_clamp(to, incoming);
        if (!self_edge) {
            auto [oit, inserted] = entry_other.try_emplace(to, incoming);
            if (!inserted) oit->second = join_states(oit->second, incoming);
        }
        const auto it = entry.find(to);
        if (it == entry.end()) {
            entry.emplace(to, std::move(incoming));
            worklist.insert(to);
            return;
        }
        AbsState joined = join_states(it->second, incoming);
        if (joined == it->second) return;
        const std::size_t n = ++visits[to];
        if (n > kWidenAfter)
            widen_state(joined, it->second, hints.count(to) != 0);
        if (joined == it->second) return;
        it->second = std::move(joined);
        worklist.insert(to);
    }

    // Accelerate counted loops: instead of iterating `trips` times,
    // jump the back-edge depth straight to its proven ceiling.
    void apply_clamp(mem::Addr to, AbsState& incoming) {
        const auto h = hints.find(to);
        if (h == hints.end() || !incoming.depth_bounded) return;
        const auto base = entry_other.find(to);
        if (base == entry_other.end() || !base->second.depth_bounded) {
            incoming.depth_bounded = false;
            normalize_depth(incoming);
            return;
        }
        const auto& bb = cfg.blocks.at(to);
        const std::int64_t cap =
            base->second.depth_hi +
            static_cast<std::int64_t>(h->second.trips) * bb.net_growth;
        // Pin the back-edge depth to the proven ceiling (`trips` bounds
        // the number of re-entries, so depth above it is unreachable).
        // Pinning — not max() — is what makes the self-edge a fixpoint:
        // the next visit arrives at cap + net_growth and lands back on
        // cap.
        incoming.depth_hi = cap;
        incoming.depth_lo = std::min(incoming.depth_lo, cap);
    }

    void run() {
        entry.clear();
        entry_other.clear();
        visits.clear();
        worklist.clear();
        iterations = 0;
        capped = false;
        const std::size_t cap = cfg.blocks.size() * 64 + 256;
        for (const mem::Addr root : cfg.roots) merge(0, root, AbsState{});
        while (!worklist.empty()) {
            if (++iterations > cap) {
                capped = true;
                break;
            }
            const mem::Addr start = *worklist.begin();
            worklist.erase(worklist.begin());
            const auto bit = cfg.blocks.find(start);
            if (bit == cfg.blocks.end()) continue;
            process(bit->second);
        }
    }

    void process(const BasicBlock& bb) {
        AbsState st = entry.at(bb.start);
        const bool complete = walk(bb, st, [](mem::Addr, const Instruction&,
                                              const StepFacts&,
                                              const AbsState&) {});
        if (!complete) return;  // Ends in a decode trap: no successors.
        emit_edges(bb, st, [this, &bb](mem::Addr to, AbsState s) {
            merge(bb.start, to, std::move(s));
        });
    }

    // Runs the transfer function over one block. `on_insn` observes
    // each instruction with its facts and the post-state. Returns
    // false when the block ends at an undecodable word.
    template <typename F>
    bool walk(const BasicBlock& bb, AbsState& st, F&& on_insn) const {
        for (mem::Addr pc = bb.start; pc < bb.end; pc += 4) {
            if (!cfg.in_image(pc)) break;
            const DecodedWord& w = cfg.words[cfg.index_of(pc)];
            if (!w.valid) return false;
            StepFacts facts;
            step_insn(st, w.insn, pc, segments, facts);
            on_insn(pc, w.insn, facts, st);
        }
        return true;
    }

    // Static out-edges of a completed block, mirroring build_cfg's
    // successor rules; jalr resolution uses the interval domain.
    template <typename F>
    void emit_edges(const BasicBlock& bb, const AbsState& exit,
                    F&& edge) const {
        if (bb.end <= bb.start || bb.falls_off) return;
        const mem::Addr pc = bb.end - 4;
        if (!cfg.in_image(pc)) return;
        const DecodedWord& w = cfg.words[cfg.index_of(pc)];
        if (!w.valid) return;
        const Instruction& insn = w.insn;
        const auto simm = static_cast<std::uint32_t>(insn.simm());
        switch (insn.opcode) {
            case Opcode::kBeq:
            case Opcode::kBne:
            case Opcode::kBlt:
            case Opcode::kBge:
            case Opcode::kBltu:
            case Opcode::kBgeu: {
                AbsState taken = exit;
                if (refine_branch(taken, insn, true))
                    edge(pc + simm, std::move(taken));
                AbsState fall = exit;
                if (refine_branch(fall, insn, false))
                    edge(pc + 4, std::move(fall));
                break;
            }
            case Opcode::kJal: {
                edge(pc + simm, exit);
                if ((insn.rd & 15u) == kLr)
                    edge(pc + 4, return_site_state(exit));
                break;
            }
            case Opcode::kJalr: {
                const bool is_return = insn.rd == 0 &&
                                       (insn.rs1 & 15u) == kLr && simm == 0;
                if (is_return) break;
                const bool call = (insn.rd & 15u) == kLr;
                const Interval& base = exit.reg(insn.rs1 & 15u);
                if (base.singleton()) edge((base.lo + simm) & ~3u, exit);
                if (call) edge(pc + 4, return_site_state(exit));
                break;
            }
            default:
                break;  // halt/mret/sret or image edge: no successors.
        }
    }

    // Counted-loop inference over the converged register states:
    // self-loop guarded by `bne counter, r0` whose only counter write
    // is a constant decrement, entered with a provably positive,
    // step-divisible counter.
    void infer_hints() {
        hints.clear();
        for (const auto& [start, bb] : cfg.blocks) {
            if (entry.find(start) == entry.end()) continue;
            if (bb.sp_clobbered || bb.stack_reset) continue;
            if (bb.net_growth <= 0) continue;
            if (std::find(bb.successors.begin(), bb.successors.end(), start) ==
                bb.successors.end())
                continue;
            if (bb.end <= bb.start || !cfg.in_image(bb.end - 4)) continue;
            const DecodedWord& w = cfg.words[cfg.index_of(bb.end - 4)];
            if (!w.valid || w.insn.opcode != Opcode::kBne) continue;
            const mem::Addr target =
                (bb.end - 4) + static_cast<std::uint32_t>(w.insn.simm());
            if (target != start) continue;
            unsigned counter = 0;
            if ((w.insn.rd & 15u) == 0)
                counter = w.insn.rs1 & 15u;
            else if ((w.insn.rs1 & 15u) == 0)
                counter = w.insn.rd & 15u;
            if (counter == 0) continue;
            std::uint32_t step = 0;
            bool single_update = true;
            for (mem::Addr pc = bb.start; pc < bb.end && single_update;
                 pc += 4) {
                if (!cfg.in_image(pc)) break;
                const DecodedWord& cw = cfg.words[cfg.index_of(pc)];
                if (!cw.valid) break;
                if (!writes_reg(cw.insn, counter)) continue;
                const bool is_dec = cw.insn.opcode == Opcode::kAddi &&
                                    (cw.insn.rd & 15u) == counter &&
                                    (cw.insn.rs1 & 15u) == counter &&
                                    cw.insn.simm() < 0;
                if (!is_dec || step != 0)
                    single_update = false;
                else
                    step = static_cast<std::uint32_t>(-cw.insn.simm());
            }
            if (!single_update || step == 0) continue;
            const auto other = entry_other.find(start);
            if (other == entry_other.end()) continue;
            const Interval& c0 = other->second.reg(counter);
            if (c0.hi == kMax32 || c0.lo < 1) continue;
            std::uint64_t trips = 0;
            if (step == 1) {
                trips = c0.hi;
            } else if (c0.singleton()) {
                if (c0.lo % step != 0 || c0.lo < step) continue;
                trips = c0.lo / step;
            } else if (c0.align >= step && c0.phase % step == 0 &&
                       c0.lo >= step) {
                trips = c0.hi / step;
            } else {
                continue;
            }
            hints[start] = TripHint{trips, counter};
        }
    }

    static bool writes_reg(const Instruction& insn, unsigned r) noexcept {
        switch (insn.opcode) {
            case Opcode::kAdd:
            case Opcode::kSub:
            case Opcode::kAnd:
            case Opcode::kOr:
            case Opcode::kXor:
            case Opcode::kShl:
            case Opcode::kShr:
            case Opcode::kSra:
            case Opcode::kMul:
            case Opcode::kSlt:
            case Opcode::kSltu:
            case Opcode::kAddi:
            case Opcode::kAndi:
            case Opcode::kOri:
            case Opcode::kXori:
            case Opcode::kShli:
            case Opcode::kShri:
            case Opcode::kLui:
            case Opcode::kLw:
            case Opcode::kLh:
            case Opcode::kLb:
            case Opcode::kJal:
            case Opcode::kJalr:
            case Opcode::kCsrr:
                return (insn.rd & 15u) == r;
            case Opcode::kEcall:
            case Opcode::kSmc:
                return true;  // Service may rewrite anything.
            default:
                return false;
        }
    }
};

}  // namespace

Interval interval_join(const Interval& a, const Interval& b) noexcept {
    std::uint8_t align = common_align(a.align, b.align);
    while (align > 1 && ((a.phase ^ b.phase) & (align - 1u)) != 0) align >>= 1;
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), align,
            static_cast<std::uint8_t>(a.phase & (align - 1u))};
}

AbsIntResult analyze_image(const Cfg& cfg, const SegmentMap& segments) {
    AbsIntResult result;
    if (cfg.blocks.empty()) return result;

    Fixpoint fx(cfg, segments);
    fx.run();
    // Counted-loop bounds need converged register states; when any
    // hinted loop's depth widened to "unbounded", rerun with the
    // back-edge depth clamped to the inferred ceiling.
    fx.infer_hints();
    bool rerun = false;
    for (const auto& [start, hint] : fx.hints) {
        const auto it = fx.entry.find(start);
        if (it != fx.entry.end() && !it->second.depth_bounded) rerun = true;
    }
    if (rerun && !fx.capped) fx.run();

    result.iterations = fx.iterations;
    result.converged = !fx.capped;

    // Computed control flow (jalr in any form, mret, sret) can enter a
    // block with register values the static join never saw; the stack
    // pass then refuses to tighten its bound from loop certificates.
    for (const auto& [start, bb] : cfg.blocks) {
        if (fx.entry.find(start) == fx.entry.end()) continue;
        for (mem::Addr pc = bb.start; pc < bb.end; pc += 4) {
            if (!cfg.in_image(pc)) break;
            const DecodedWord& w = cfg.words[cfg.index_of(pc)];
            if (!w.valid) break;
            if (w.insn.opcode == Opcode::kJalr ||
                w.insn.opcode == Opcode::kMret ||
                w.insn.opcode == Opcode::kSret)
                result.computed_flow = true;
        }
    }

    // --- Reporting walk: interprocedural states drive the per-access
    // verdicts, the taint sinks and the stack-certificate data.
    struct BlockFacts {
        std::int64_t peak_hi = 0;
        bool depth_bounded = true;
        bool poisoned = false;  // Unresolved continuation (indirect exit).
    };
    std::map<mem::Addr, BlockFacts> block_facts;
    std::map<mem::Addr, std::vector<mem::Addr>> graph;
    std::map<std::pair<mem::Addr, int>, TaintTrace> traces;

    // mret/sret resume at an epc the domain does not track: like an
    // unresolved jalr, the continuation is arbitrary computed control
    // flow, so a certificate whose walk reaches such a block must not
    // claim a bound.
    const auto computed_return = [&cfg](const BasicBlock& bb) {
        if (bb.end <= bb.start || !cfg.in_image(bb.end - 4)) return false;
        const DecodedWord& w = cfg.words[cfg.index_of(bb.end - 4)];
        return w.valid && (w.insn.opcode == Opcode::kMret ||
                           w.insn.opcode == Opcode::kSret);
    };

    const auto sink = [&](mem::Addr source_pc, mem::Addr sink_pc,
                          std::uint8_t mask, TaintSinkKind kind) {
        if (mask == 0) return;
        const auto key = std::make_pair(sink_pc, static_cast<int>(kind));
        if (traces.find(key) != traces.end()) return;
        TaintTrace t;
        t.source_pc = source_pc;
        t.sink_pc = sink_pc;
        t.source = std::string(taint_source_name(mask));
        t.sink = std::string(taint_sink_name(kind));
        traces.emplace(key, std::move(t));
    };

    for (const auto& [start, bb] : cfg.blocks) {
        const auto eit = fx.entry.find(start);
        if (eit == fx.entry.end()) continue;
        AbsState st = eit->second;
        BlockFacts bf;
        bf.peak_hi = st.depth_bounded ? st.depth_hi : 0;
        bf.depth_bounded = st.depth_bounded;
        bf.poisoned = bb.indirect_exit || computed_return(bb);
        const bool complete = fx.walk(
            bb, st,
            [&](mem::Addr pc, const Instruction&, const StepFacts& f,
                const AbsState& after) {
                if (after.depth_bounded)
                    bf.peak_hi = std::max(bf.peak_hi, after.depth_hi);
                else
                    bf.depth_bounded = false;
                if (f.is_mem) {
                    const Segment* seg = nullptr;
                    const bool ok = access_proven(segments, f.addr, f.size,
                                                  f.is_store, seg);
                    // Provably bad: the entire (bounded) range misses
                    // every segment the access class may touch, and for
                    // stores also misses the image (data-in-text is the
                    // memory pass's business, not an OOB).
                    bool oob = false;
                    if (!f.addr.is_top() &&
                        f.addr.hi <= kMax32 - (f.size - 1)) {
                        const std::uint64_t lo = f.addr.lo;
                        const std::uint64_t hi =
                            std::uint64_t{f.addr.hi} + f.size - 1;
                        oob = true;
                        for (const Segment& s : segments.segments) {
                            if (!range_intersects(s, lo, hi)) continue;
                            if (!f.is_store || (s.writable && !s.secure)) {
                                oob = false;
                                break;
                            }
                        }
                        if (oob && f.is_store) {
                            const std::uint64_t img_lo = cfg.base;
                            const std::uint64_t img_hi =
                                cfg.base + cfg.words.size() * 4 +
                                cfg.tail_bytes;
                            if (img_hi > img_lo && img_lo <= hi &&
                                lo <= img_hi - 1)
                                oob = false;
                        }
                    }
                    auto [cit, fresh] = result.checks.try_emplace(
                        cfg.index_of(pc), AccessCheck{});
                    AccessCheck& c = cit->second;
                    if (fresh) {
                        c.at = pc;
                        c.size = f.size;
                        c.is_store = f.is_store;
                        c.proven = ok;
                        c.provably_oob = oob;
                        c.bounded = !f.addr.is_top();
                        c.lo = f.addr.lo;
                        c.hi = f.addr.hi;
                        if (ok) c.segment = seg->name;
                    } else {
                        c.proven = c.proven && ok;
                        c.provably_oob = c.provably_oob || oob;
                        c.bounded = c.bounded && !f.addr.is_top();
                        c.lo = std::min(c.lo, f.addr.lo);
                        c.hi = std::max(c.hi, f.addr.hi);
                        if (!ok) c.segment.clear();
                    }
                    if (f.is_store)
                        sink(f.addr_taint_origin, pc, f.addr_taint,
                             TaintSinkKind::kStoreAddress);
                }
                if (f.csrw_taint != 0)
                    sink(f.csrw_taint_origin, pc, f.csrw_taint,
                         TaintSinkKind::kCsrWrite);
                if (f.jump_taint != 0)
                    sink(f.jump_taint_origin, pc, f.jump_taint,
                         TaintSinkKind::kIndirectJump);
            });
        if (complete) {
            fx.emit_edges(bb, st, [&](mem::Addr to, AbsState) {
                if (cfg.blocks.find(to) != cfg.blocks.end())
                    graph[start].push_back(to);
            });
        }
        block_facts.emplace(start, bf);
    }

    for (auto& [key, t] : traces) result.taint_traces.push_back(t);

    // --- Stack certificates: one per root and per resolved call
    // target, bounding the depth reachable from that entry.
    std::vector<mem::Addr> cert_entries = cfg.roots;
    for (const JumpSite& j : cfg.jumps)
        if (j.is_call && j.resolved) cert_entries.push_back(j.target);
    std::sort(cert_entries.begin(), cert_entries.end());
    cert_entries.erase(
        std::unique(cert_entries.begin(), cert_entries.end()),
        cert_entries.end());
    for (const mem::Addr e : cert_entries) {
        const auto eit = fx.entry.find(e);
        if (eit == fx.entry.end() ||
            block_facts.find(e) == block_facts.end())
            continue;
        ProofAnnotations::StackCertificate cert;
        cert.entry = e;
        cert.bounded = result.converged;
        std::int64_t max_peak = 0;
        const std::int64_t baseline =
            eit->second.depth_bounded ? eit->second.depth_lo : 0;
        std::set<mem::Addr> visited;
        std::vector<mem::Addr> stack{e};
        while (!stack.empty()) {
            const mem::Addr b = stack.back();
            stack.pop_back();
            if (!visited.insert(b).second) continue;
            const auto bfit = block_facts.find(b);
            if (bfit == block_facts.end()) continue;
            if (!bfit->second.depth_bounded || bfit->second.poisoned)
                cert.bounded = false;
            max_peak = std::max(max_peak, bfit->second.peak_hi);
            const auto git = graph.find(b);
            if (git == graph.end()) continue;
            for (const mem::Addr succ : git->second) stack.push_back(succ);
        }
        if (cert.bounded)
            cert.bound_bytes = static_cast<std::uint64_t>(
                std::max<std::int64_t>(0, max_peak - baseline));
        result.proofs.certificates.push_back(cert);
    }

    // "Proven" has one definition: the per-access verdicts above. When
    // the fixpoint did not converge those verdicts are not sound, so
    // nothing counts as proven.
    result.proofs.mem_ops = result.checks.size();
    if (result.converged) {
        for (const auto& [idx, c] : result.checks)
            result.proofs.proven_ops += c.proven ? 1 : 0;
    }

    result.block_entry = std::move(fx.entry);
    return result;
}

}  // namespace cres::analysis
