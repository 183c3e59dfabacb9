// The trace subsystem: recorder ring semantics, thread-local binding,
// span RAII, deterministic exporters and the metrics layer.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "plugvolt/polling_module.hpp"
#include "sim/machine.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace pv::trace {
namespace {

/// Minimal duck-typed clock for ScopedSpan.
struct FakeClock {
    Picoseconds t{};
    [[nodiscard]] Picoseconds now() const { return t; }
};

TEST(TraceRecorder, RecordsEventsInOrder) {
    TraceRecorder rec("t", 7);
    rec.record(EventKind::Instant, "one", 10, 1, 2);
    rec.record(EventKind::Instant, "two", 20);
    EXPECT_EQ(rec.track_name(), "t");
    EXPECT_EQ(rec.track_id(), 7u);
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.recorded_events(), 2u);
    EXPECT_EQ(rec.dropped_events(), 0u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "one");
    EXPECT_EQ(events[0].ts_ps, 10);
    EXPECT_EQ(events[0].a, 1u);
    EXPECT_EQ(events[0].b, 2u);
    EXPECT_STREQ(events[1].name, "two");
}

TEST(TraceRecorder, RingOverwritesOldestWhenFull) {
    TraceRecorder rec("ring", 0, /*capacity=*/4);
    for (std::int64_t i = 0; i < 6; ++i) rec.record(EventKind::Instant, "e", i);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.recorded_events(), 6u);
    EXPECT_EQ(rec.dropped_events(), 2u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest two (ts 0, 1) were overwritten; survivors are oldest-first.
    for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].ts_ps, i + 2);
}

TEST(TraceRecorder, ZeroCapacityThrows) {
    EXPECT_THROW(TraceRecorder("bad", 0, 0), ConfigError);
}

TEST(ScopedRecorderBinding, BindsRestoresAndPassesThroughNull) {
    EXPECT_EQ(current_recorder(), nullptr);
    TraceRecorder outer("outer", 0), inner("inner", 1);
    {
        ScopedRecorder bind_outer(&outer);
        EXPECT_EQ(current_recorder(), &outer);
        {
            ScopedRecorder bind_null(nullptr);  // passthrough, not an unbind
            EXPECT_EQ(current_recorder(), &outer);
            ScopedRecorder bind_inner(&inner);
            EXPECT_EQ(current_recorder(), &inner);
        }
        EXPECT_EQ(current_recorder(), &outer);
    }
    EXPECT_EQ(current_recorder(), nullptr);
}

TEST(ScopedRecorderBinding, IsPerThread) {
    TraceRecorder rec("main", 0);
    ScopedRecorder bind(&rec);
    TraceRecorder* seen = &rec;
    std::thread([&seen] { seen = current_recorder(); }).join();
    EXPECT_EQ(seen, nullptr);  // the binding never leaks across threads
}

TEST(ScopedSpan, EmitsBeginAndEndFromTheClock) {
    TraceRecorder rec("span", 0);
    ScopedRecorder bind(&rec);
    FakeClock clock;
    clock.t = Picoseconds{100};
    {
        ScopedSpan span("work", clock, 42);
        clock.t = Picoseconds{250};
    }
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, EventKind::SpanBegin);
    EXPECT_EQ(events[0].ts_ps, 100);
    EXPECT_EQ(events[0].a, 42u);
    EXPECT_EQ(events[1].kind, EventKind::SpanEnd);
    EXPECT_EQ(events[1].ts_ps, 250);
}

TEST(TraceMacros, RecordOnlyWhenBound) {
    FakeClock clock;
    // Unbound: must be a no-op, not a crash.
    PV_TRACE_EVENT(EventKind::Instant, "nobody-listens", 1, 2, 3);
    TraceRecorder rec("macro", 0);
    {
        ScopedRecorder bind(&rec);
        PV_TRACE_EVENT(EventKind::Instant, "coarse", 10, 0, 0);
        PV_TRACE_EVENT_FINE(EventKind::PollIteration, "fine", 20, 0, 0);
        PV_TRACE_SPAN("span", clock);
    }
#if PV_TRACE_LEVEL >= 2
    EXPECT_EQ(rec.size(), 4u);
#elif PV_TRACE_LEVEL == 1
    EXPECT_EQ(rec.size(), 3u);
#else
    EXPECT_EQ(rec.size(), 0u);
#endif
}

TEST(TraceSessionExport, TracksSortByIdAndExportDeterministically) {
    auto build = [] {
        TraceSession session;
        // Created out of id order, on purpose.
        TraceRecorder& b = session.create_track("beta", 2);
        TraceRecorder& a = session.create_track("alpha", 1);
        b.record(EventKind::Instant, "b0", 2'000'000);
        a.record(EventKind::SpanBegin, "a0", 0);
        a.record(EventKind::SpanEnd, "a0", 1'234'567);
        return session.to_chrome_json();
    };
    const std::string json = build();
    EXPECT_EQ(json, build());  // byte-deterministic
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // Integer-math µs timestamps: 1'234'567 ps = 1.234567 µs.
    EXPECT_NE(json.find("\"ts\":1.234567"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Track "alpha" (id 1) is exported before "beta" (id 2).
    EXPECT_LT(json.find("alpha"), json.find("beta"));
}

TEST(TraceSessionExport, CsvRoundTripsThroughTheCsvParser) {
    TraceSession session;
    TraceRecorder& t = session.create_track("has,comma \"quoted\"", 0);
    t.record(EventKind::MsrWrite, "line\nbreak", 5, 0x150, 0xDEAD);
    const CsvDocument doc = csv_parse(session.to_csv());
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.header[0], "track_id");
    EXPECT_EQ(doc.rows[0][1], "has,comma \"quoted\"");
    EXPECT_EQ(doc.rows[0][4], "msr-write");
    EXPECT_EQ(doc.rows[0][5], "line\nbreak");
    EXPECT_EQ(doc.rows[0][6], std::to_string(0x150));
}

TEST(TraceSessionExport, EventCountSumsRecordedEvents) {
    TraceSession session(/*track_capacity=*/2);
    TraceRecorder& t = session.create_track("t", 0);
    for (int i = 0; i < 5; ++i) t.record(EventKind::Instant, "e", i);
    EXPECT_EQ(session.track_count(), 1u);
    EXPECT_EQ(session.event_count(), 2u);  // ring kept the newest two
}

TEST(Metrics, HistogramBucketsOnInclusiveUpperBounds) {
    Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);
    h.observe(1.0);    // inclusive: still the first bucket
    h.observe(50.0);
    h.observe(1000.0); // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 1051.5);
    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 0u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Metrics, HistogramRejectsBadBounds) {
    EXPECT_THROW(Histogram({}), ConfigError);
    EXPECT_THROW(Histogram({1.0, 1.0}), ConfigError);
    EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
}

TEST(Metrics, RegistrySnapshotAndKindConflicts) {
    MetricsRegistry reg;
    reg.counter("hits") = 3;
    reg.add("hits", 2);
    reg.gauge("level") = 1.5;
    EXPECT_THROW(reg.gauge("hits"), ConfigError);
    EXPECT_THROW(reg.counter("level"), ConfigError);

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.values().at("hits").count, 5u);
    EXPECT_DOUBLE_EQ(snap.values().at("level").value, 1.5);
}

TEST(Metrics, SnapshotJsonIsDeterministicAndOrdered) {
    MetricsSnapshot snap;
    snap.set_gauge("z_last", 2.5);
    snap.set_counter("a_first", 7);
    const std::string json = snap.to_json();
    EXPECT_EQ(json,
              "{\"a_first\":{\"kind\":\"counter\",\"count\":7},"
              "\"z_last\":{\"kind\":\"gauge\",\"value\":2.5}}");
    EXPECT_EQ(json, snap.to_json());
}

TEST(Metrics, MergeAppliesPrefixAndDiffSubtractsCounters) {
    MetricsRegistry reg;
    reg.counter("polls") = 10;
    MetricsSnapshot cell;
    cell.set_counter("attempts", 1);
    cell.merge(reg.snapshot(), "polling.");
    EXPECT_EQ(cell.values().count("polling.polls"), 1u);
    EXPECT_EQ(cell.values().count("attempts"), 1u);

    reg.counter("polls") = 25;
    reg.gauge("level") = 3.0;
    const MetricsSnapshot later = reg.snapshot();
    // Entries missing from `earlier` count from zero.
    EXPECT_EQ(later.diff(MetricsSnapshot{}).values().at("polls").count, 25u);
    MetricsSnapshot earlier;
    earlier.set_counter("polls", 10);
    const MetricsSnapshot delta = later.diff(earlier);
    EXPECT_EQ(delta.values().at("polls").count, 15u);
    // Gauges are levels, not totals: diff keeps the current value.
    EXPECT_DOUBLE_EQ(delta.values().at("level").value, 3.0);
}

TEST(MachineTrace, OcmWritesAndCrashesLandOnTheTrack) {
    TraceRecorder rec("machine", 0);
    ScopedRecorder bind(&rec);

    test::MachineRig rig(42);
    EXPECT_EQ(rig.machine.last_ocm_write_time(), Picoseconds{});
    rig.machine.set_all_frequencies(rig.machine.profile().freq_max);
    rig.machine.advance_to(rig.machine.rail_settle_time());
    rig.machine.write_msr(0, sim::kMsrOcMailbox,
                          sim::encode_offset(Millivolts{-350.0}, sim::VoltagePlane::Core));
    EXPECT_EQ(rig.machine.last_ocm_write_time(), rig.machine.now());
    rig.machine.advance(milliseconds(5.0));
    EXPECT_TRUE(rig.machine.crashed());

    bool saw_ocm = false, saw_crash = false;
    for (const Event& e : rec.events()) {
        if (e.kind == EventKind::OcmTransaction) saw_ocm = true;
        if (e.kind == EventKind::Instant && std::string_view(e.name) == "crash")
            saw_crash = true;
    }
#if PV_TRACE_LEVEL >= 1
    EXPECT_TRUE(saw_ocm);
    EXPECT_TRUE(saw_crash);
#else
    EXPECT_FALSE(saw_ocm);
    EXPECT_FALSE(saw_crash);
#endif
}

TEST(PollingModuleTrace, SnapshotCarriesCountersAndHistograms) {
    test::MachineRig rig(31);
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(),
                                                            plugvolt::PollingConfig{});
    rig.kernel.load_module(module);
    os::Cpupower cpupower(rig.machine);
    cpupower.frequency_set(rig.machine.profile().freq_max);
    rig.machine.advance_to(rig.machine.rail_settle_time());
    rig.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox,
                                 sim::encode_offset(Millivolts{-200.0},
                                                    sim::VoltagePlane::Core));
    rig.machine.advance(milliseconds(1.0));

    const MetricsSnapshot snap = module->metrics_snapshot();
    EXPECT_GT(snap.values().at("polls").count, 0u);
    EXPECT_GT(snap.values().at("detections").count, 0u);
    EXPECT_GT(snap.values().at("restore_writes").count, 0u);
    const MetricValue& gap = snap.values().at("poll_gap_us");
    EXPECT_EQ(gap.kind, MetricValue::Kind::Histogram);
    EXPECT_GT(gap.count, 0u);
    const MetricValue& dwell = snap.values().at("unsafe_dwell_us");
    EXPECT_EQ(dwell.kind, MetricValue::Kind::Histogram);
    EXPECT_GT(dwell.count, 0u);
    // Consistency: counters mirror the module's native metrics struct.
    EXPECT_EQ(snap.values().at("polls").count, module->metrics().polls);
    EXPECT_EQ(snap.values().at("detections").count, module->metrics().detections);
}

}  // namespace
}  // namespace pv::trace
