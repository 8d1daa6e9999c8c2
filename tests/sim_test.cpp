// Simulation-kernel tests: event ordering, tickables, trace streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/error.h"

namespace cres::sim {
namespace {

class Counter : public Tickable {
public:
    void tick(Cycle) override { ++ticks; }
    int ticks = 0;
};

TEST(Simulator, StartsAtCycleZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, RunForAdvancesClock) {
    Simulator sim;
    sim.run_for(10);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, TickablesTickedEveryCycle) {
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(5);
    EXPECT_EQ(c.ticks, 5);
}

TEST(Simulator, RemoveTickableStopsTicks) {
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(3);
    sim.remove_tickable(&c);
    sim.run_for(3);
    EXPECT_EQ(c.ticks, 3);
}

TEST(Simulator, NullTickableRejected) {
    Simulator sim;
    EXPECT_THROW(sim.add_tickable(nullptr), SimError);
}

TEST(Simulator, EventFiresAtScheduledCycle) {
    Simulator sim;
    Cycle fired_at = 0;
    sim.schedule_at(7, "e", [&] { fired_at = sim.now(); });
    sim.run_for(10);
    EXPECT_EQ(fired_at, 7u);
}

TEST(Simulator, ScheduleInIsRelative) {
    Simulator sim;
    sim.run_for(5);
    Cycle fired_at = 0;
    sim.schedule_in(3, "e", [&] { fired_at = sim.now(); });
    sim.run_for(10);
    EXPECT_EQ(fired_at, 8u);
}

TEST(Simulator, SameCycleEventsRunInOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(2, "a", [&] { order.push_back(1); });
    sim.schedule_at(2, "b", [&] { order.push_back(2); });
    sim.schedule_at(1, "c", [&] { order.push_back(0); });
    sim.run_for(5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, PastSchedulingRejected) {
    Simulator sim;
    sim.run_for(10);
    EXPECT_THROW(sim.schedule_at(5, "late", [] {}), SimError);
}

TEST(Simulator, EventMayScheduleMoreEvents) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(1, "outer", [&] {
        ++fired;
        sim.schedule_in(2, "inner", [&] { ++fired; });
    });
    sim.run_for(10);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(Simulator, RunUntilStopsAtTarget) {
    Simulator sim;
    sim.run_until(42);
    EXPECT_EQ(sim.now(), 42u);
    sim.run_until(10);  // No-op when already past.
    EXPECT_EQ(sim.now(), 42u);
}

TEST(Simulator, IdleReflectsQueue) {
    Simulator sim;
    EXPECT_TRUE(sim.idle());
    sim.schedule_at(100, "later", [] {});
    EXPECT_FALSE(sim.idle());
    sim.run_for(101);
    EXPECT_TRUE(sim.idle());
}

// Ticks every `period` cycles and implements the quiescence protocol;
// skip() reproduces the state of the elided (non-firing) ticks.
class Periodic : public Tickable {
public:
    explicit Periodic(Cycle period) : period_(period) {}

    void tick(Cycle now) override {
        ++ticks;
        last = now;
        if (now % period_ == 0) ++fires;
    }
    Cycle next_activity(Cycle now) override {
        if (now % period_ == 0) return now;
        return now + (period_ - now % period_);
    }
    void skip(Cycle now, Cycle cycles) override {
        ticks += static_cast<int>(cycles);
        last = now + cycles - 1;
    }

    Cycle period_;
    int ticks = 0;
    int fires = 0;
    Cycle last = 0;
};

TEST(Quiescence, FastForwardMatchesPerCycleExecution) {
    Simulator fast;
    Simulator slow;
    slow.set_quiescence(false);
    Periodic fast_p(97);
    Periodic slow_p(97);
    fast.add_tickable(&fast_p);
    slow.add_tickable(&slow_p);

    fast.run_for(1000);
    slow.run_for(1000);

    EXPECT_EQ(fast.now(), slow.now());
    EXPECT_EQ(fast_p.ticks, slow_p.ticks);
    EXPECT_EQ(fast_p.fires, slow_p.fires);
    EXPECT_EQ(fast_p.last, slow_p.last);
    EXPECT_GT(fast.cycles_skipped(), 0u);
    EXPECT_EQ(slow.cycles_skipped(), 0u);
}

TEST(Quiescence, EventsFireAtExactCyclesAcrossSkips) {
    Simulator sim;
    Periodic p(1000);  // Idle almost always: events bound the jumps.
    sim.add_tickable(&p);
    std::vector<Cycle> fired;
    sim.schedule_at(37, "a", [&] { fired.push_back(sim.now()); });
    sim.schedule_at(612, "b", [&] { fired.push_back(sim.now()); });
    sim.schedule_at(613, "c", [&] { fired.push_back(sim.now()); });
    sim.run_for(700);
    EXPECT_EQ(fired, (std::vector<Cycle>{37, 612, 613}));
    EXPECT_EQ(sim.now(), 700u);
    EXPECT_GT(sim.cycles_skipped(), 0u);
}

TEST(Quiescence, DefaultTickableIsAlwaysActive) {
    // Tickables that don't implement the protocol keep per-cycle
    // semantics, pinning the whole simulator to per-cycle stepping.
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(50);
    EXPECT_EQ(c.ticks, 50);
    EXPECT_EQ(sim.cycles_skipped(), 0u);
}

TEST(Quiescence, IdleForeverTickableJumpsToTarget) {
    class Dormant : public Tickable {
    public:
        void tick(Cycle) override { ++ticks; }
        Cycle next_activity(Cycle) override { return kIdleForever; }
        void skip(Cycle, Cycle) override {}
        int ticks = 0;
    };
    Simulator sim;
    Dormant d;
    sim.add_tickable(&d);
    sim.run_for(10000);
    EXPECT_EQ(sim.now(), 10000u);
    EXPECT_EQ(d.ticks, 0);
    EXPECT_EQ(sim.cycles_skipped(), 10000u);
}

TEST(Quiescence, DisabledKnobForcesPerCycle) {
    Simulator sim;
    sim.set_quiescence(false);
    EXPECT_FALSE(sim.quiescence());
    Periodic p(100);
    sim.add_tickable(&p);
    sim.run_for(500);
    EXPECT_EQ(p.ticks, 500);
    EXPECT_EQ(sim.cycles_skipped(), 0u);
}

// Always active; runs alone when allowed, for at most `max_burst`
// cycles per burst, logging each burst as (start, cycles run) and the
// horizon it was offered.
class Soloist : public Tickable {
public:
    void tick(Cycle now) override {
        ++ticks;
        last = now;
    }
    bool can_run_alone(Cycle) override { return solo; }
    Cycle run_alone(Cycle now, Cycle horizon) override {
        const Cycle n = std::min(horizon - now, max_burst);
        bursts.emplace_back(now, n);
        horizons.push_back(horizon);
        ticks += static_cast<int>(n);
        last = now + n - 1;
        return n;
    }

    bool solo = true;
    Cycle max_burst = kIdleForever;
    int ticks = 0;
    Cycle last = 0;
    std::vector<std::pair<Cycle, Cycle>> bursts;
    std::vector<Cycle> horizons;
};

// A Periodic that logs every skip() as (start, cycles) and counts the
// next_activity() queries it receives.
class SkipLog : public Periodic {
public:
    using Periodic::Periodic;
    Cycle next_activity(Cycle now) override {
        ++queries;
        return Periodic::next_activity(now);
    }
    void skip(Cycle now, Cycle cycles) override {
        skips.emplace_back(now, cycles);
        Periodic::skip(now, cycles);
    }

    int queries = 0;
    std::vector<std::pair<Cycle, Cycle>> skips;
};

TEST(Quiescence, LoneActiveComponentRunsAloneToTheHorizon) {
    Simulator sim;
    Soloist solo;
    SkipLog a(100);
    SkipLog b(37);
    sim.add_tickable(&a);
    sim.add_tickable(&solo);
    sim.add_tickable(&b);
    sim.run_for(1000);

    Simulator ref;
    ref.set_quiescence(false);
    Soloist ref_solo;
    Periodic ref_a(100);
    Periodic ref_b(37);
    ref.add_tickable(&ref_a);
    ref.add_tickable(&ref_solo);
    ref.add_tickable(&ref_b);
    ref.run_for(1000);

    EXPECT_EQ(solo.ticks, 1000);
    EXPECT_EQ(solo.last, 999u);
    EXPECT_EQ(a.ticks, ref_a.ticks);
    EXPECT_EQ(a.fires, ref_a.fires);
    EXPECT_EQ(a.last, ref_a.last);
    EXPECT_EQ(b.ticks, ref_b.ticks);
    EXPECT_EQ(b.fires, ref_b.fires);
    EXPECT_EQ(b.last, ref_b.last);
    EXPECT_TRUE(ref_solo.bursts.empty());

    // Every burst runs up to the next wake of another component (or the
    // target), and each other component replays it with one skip().
    ASSERT_FALSE(solo.bursts.empty());
    Cycle alone = 0;
    for (std::size_t i = 0; i < solo.bursts.size(); ++i) {
        const auto [start, n] = solo.bursts[i];
        const Cycle horizon = solo.horizons[i];
        EXPECT_EQ(start + n, horizon);
        EXPECT_TRUE(horizon % 100 == 0 || horizon % 37 == 0 ||
                    horizon == 1000)
            << horizon;
        alone += n;
    }
    EXPECT_EQ(a.skips, solo.bursts);
    EXPECT_EQ(b.skips, solo.bursts);
    EXPECT_EQ(sim.cycles_alone(), alone);
    EXPECT_EQ(sim.cycles_skipped(), 0u);
}

TEST(Quiescence, ShortBurstIsReplayedOnlyOverTheCyclesItRan) {
    Simulator sim;
    Soloist solo;
    solo.max_burst = 5;
    SkipLog p(100);
    sim.add_tickable(&solo);
    sim.add_tickable(&p);
    sim.run_for(300);

    Simulator ref;
    ref.set_quiescence(false);
    Periodic ref_p(100);
    ref.add_tickable(&ref_p);
    ref.run_for(300);

    EXPECT_EQ(solo.ticks, 300);
    EXPECT_EQ(p.ticks, ref_p.ticks);
    EXPECT_EQ(p.fires, ref_p.fires);
    EXPECT_EQ(p.last, ref_p.last);
    ASSERT_FALSE(solo.bursts.empty());
    for (const auto& burst : solo.bursts) EXPECT_LE(burst.second, 5u);
    EXPECT_EQ(p.skips, solo.bursts);
}

TEST(Quiescence, SecondActiveComponentForcesPerCycleSteps) {
    {
        Simulator sim;
        Soloist x;
        Soloist y;
        sim.add_tickable(&x);
        sim.add_tickable(&y);
        sim.run_for(200);
        EXPECT_TRUE(x.bursts.empty());
        EXPECT_TRUE(y.bursts.empty());
        EXPECT_EQ(x.ticks, 200);
        EXPECT_EQ(y.ticks, 200);
        EXPECT_EQ(sim.cycles_alone(), 0u);
    }
    {
        // A default tickable is always active: it never lets another
        // component run alone.
        Simulator sim;
        Soloist x;
        Counter c;
        sim.add_tickable(&x);
        sim.add_tickable(&c);
        sim.run_for(200);
        EXPECT_TRUE(x.bursts.empty());
        EXPECT_EQ(x.ticks, 200);
        EXPECT_EQ(c.ticks, 200);
        EXPECT_EQ(sim.cycles_alone(), 0u);
    }
}

TEST(Quiescence, ComponentThatCannotRunAloneStepsWithoutScanningTheRest) {
    Simulator sim;
    Soloist solo;
    solo.solo = false;
    SkipLog p(50);
    sim.add_tickable(&solo);
    sim.add_tickable(&p);
    sim.run_for(300);
    EXPECT_TRUE(solo.bursts.empty());
    EXPECT_EQ(solo.ticks, 300);
    EXPECT_EQ(p.ticks, 300);
    EXPECT_TRUE(p.skips.empty());
    EXPECT_EQ(p.queries, 0);  // The first active component decided.
    EXPECT_EQ(sim.cycles_alone(), 0u);
}

TEST(Quiescence, EventEndsTheBurstAndFiresOnItsCycle) {
    Simulator sim;
    Soloist solo;
    sim.add_tickable(&solo);
    Cycle fired_at = 0;
    int ticks_at_fire = -1;
    sim.schedule_at(250, "e", [&] {
        fired_at = sim.now();
        ticks_at_fire = solo.ticks;
    });
    sim.run_for(400);
    EXPECT_EQ(fired_at, 250u);
    EXPECT_EQ(ticks_at_fire, 250);  // Cycles 0..249, none past the event.
    const std::vector<std::pair<Cycle, Cycle>> expected{{0, 250},
                                                        {251, 149}};
    EXPECT_EQ(solo.bursts, expected);
    EXPECT_EQ(solo.ticks, 400);
    EXPECT_EQ(sim.cycles_alone(), 399u);
}

TEST(Quiescence, DisabledKnobNeverRunsAlone) {
    Simulator sim;
    sim.set_quiescence(false);
    Soloist solo;
    Periodic p(100);
    sim.add_tickable(&solo);
    sim.add_tickable(&p);
    sim.run_for(500);
    EXPECT_TRUE(solo.bursts.empty());
    EXPECT_EQ(solo.ticks, 500);
    EXPECT_EQ(p.ticks, 500);
    EXPECT_EQ(sim.cycles_alone(), 0u);
}

// Removes itself — and optionally a victim — from inside tick().
class RemoveDuringTick : public Tickable {
public:
    RemoveDuringTick(Simulator& sim, Tickable* victim)
        : sim_(sim), victim_(victim) {}
    void tick(Cycle) override {
        ++ticks;
        sim_.remove_tickable(this);
        if (victim_ != nullptr) sim_.remove_tickable(victim_);
    }
    int ticks = 0;

private:
    Simulator& sim_;
    Tickable* victim_;
};

TEST(Simulator, RemoveSelfDuringTickIsSafe) {
    Simulator sim;
    Counter before;
    RemoveDuringTick remover(sim, nullptr);
    Counter after;
    sim.add_tickable(&before);
    sim.add_tickable(&remover);
    sim.add_tickable(&after);
    sim.run_for(3);
    EXPECT_EQ(remover.ticks, 1);
    EXPECT_EQ(before.ticks, 3);
    EXPECT_EQ(after.ticks, 3);
}

TEST(Simulator, RemoveLaterComponentDuringTickSkipsItThatCycle) {
    Simulator sim;
    Counter victim;
    RemoveDuringTick remover(sim, &victim);
    sim.add_tickable(&remover);
    sim.add_tickable(&victim);  // Registered after the remover.
    sim.run_for(5);
    // Removal takes effect immediately: the victim never ticks.
    EXPECT_EQ(remover.ticks, 1);
    EXPECT_EQ(victim.ticks, 0);
}

TEST(Simulator, AddDuringTickStartsNextCycle) {
    class Adder : public Tickable {
    public:
        Adder(Simulator& sim, Tickable* child) : sim_(sim), child_(child) {}
        void tick(Cycle) override {
            if (!added_) {
                added_ = true;
                sim_.add_tickable(child_);
            }
        }

    private:
        Simulator& sim_;
        Tickable* child_;
        bool added_ = false;
    };
    Simulator sim;
    Counter child;
    Adder adder(sim, &child);
    sim.add_tickable(&adder);
    sim.run_for(4);
    EXPECT_EQ(child.ticks, 3);  // Missed the cycle it was added on.
}

TEST(Simulator, RemoveMiddleTickableKeepsOthersTicking) {
    Simulator sim;
    Counter a;
    Counter b;
    Counter c;
    sim.add_tickable(&a);
    sim.add_tickable(&b);
    sim.add_tickable(&c);
    sim.run_for(2);
    sim.remove_tickable(&b);
    sim.run_for(2);
    EXPECT_EQ(a.ticks, 4);
    EXPECT_EQ(b.ticks, 2);
    EXPECT_EQ(c.ticks, 4);
}

TEST(Simulator, LargeCaptureEventFires) {
    // Callables past the inline small-buffer bound take the boxed path.
    Simulator sim;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3;
    std::uint64_t sum = 0;
    sim.schedule_at(5, "big", [payload, &sum] {
        for (const auto v : payload) sum += v;
    });
    sim.run_for(10);
    EXPECT_EQ(sum, 360u);
}

TEST(Simulator, PastScheduleErrorNamesTheLabel) {
    Simulator sim;
    sim.run_for(10);
    try {
        sim.schedule_at(5, "late-label", [] {});
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("late-label"),
                  std::string::npos);
    }
}

TEST(Trace, EmitAndQuery) {
    TraceStream trace;
    trace.emit(1, "cpu", "trap", "bus-fault", 0x100, 0);
    trace.emit(2, "bus0", "write", "", 0x200, 42);
    trace.emit(3, "cpu", "trap", "mpu-fault", 0x104, 0);

    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.count_kind("trap"), 2u);
    EXPECT_EQ(trace.of_kind("write").size(), 1u);
    EXPECT_EQ(trace.since(2).size(), 2u);
}

TEST(Trace, ClearModelsVolatileLoss) {
    TraceStream trace;
    trace.emit(1, "cpu", "x");
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.count_kind("x"), 0u);  // Index dies with the records.
}

TEST(Trace, KindCountIndexMatchesLinearScan) {
    TraceStream trace;
    for (std::uint64_t i = 0; i < 500; ++i) {
        trace.emit(i, "cpu", i % 3 == 0 ? "trap" : "op");
    }
    std::size_t traps = 0;
    for (const auto& r : trace.records()) {
        if (r.kind == "trap") ++traps;
    }
    EXPECT_EQ(trace.count_kind("trap"), traps);
    EXPECT_EQ(trace.count_kind("op"), 500u - traps);
    EXPECT_EQ(trace.count_kind("never"), 0u);
    EXPECT_EQ(trace.kind_counts().size(), 2u);
}

TEST(Trace, NonCopyingVisitorsSeeTheSameRecords) {
    TraceStream trace;
    trace.emit(1, "cpu", "trap", "bus-fault", 0x100, 0);
    trace.emit(2, "bus0", "write", "", 0x200, 42);
    trace.emit(3, "cpu", "trap", "mpu-fault", 0x104, 0);

    std::vector<Cycle> trap_ats;
    trace.for_each_of_kind("trap", [&](const TraceRecord& r) {
        trap_ats.push_back(r.at);
    });
    EXPECT_EQ(trap_ats, (std::vector<Cycle>{1, 3}));

    std::size_t late = 0;
    trace.for_each_since(2, [&](const TraceRecord&) { ++late; });
    EXPECT_EQ(late, trace.since(2).size());
}

TEST(Trace, EncodeIsDeterministic) {
    TraceRecord r{5, "src", "kind", "detail", 1, 2};
    EXPECT_EQ(TraceStream::encode(r), TraceStream::encode(r));
    TraceRecord r2 = r;
    r2.a = 9;
    EXPECT_NE(TraceStream::encode(r), TraceStream::encode(r2));
}

}  // namespace
}  // namespace cres::sim
