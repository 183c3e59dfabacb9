#include "plugvolt/polling_module.hpp"

#include <algorithm>
#include <cmath>

#include "sim/ocm.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pv::plugvolt {

PollingModule::PollingModule(SafeStateMap map, PollingConfig config)
    : table_(std::move(map), config.guard_band, config.restore),
      config_(std::move(config)),
      poll_gap_us_({1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0}),
      unsafe_dwell_us_({0.1, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0}) {
    if (config_.interval <= Picoseconds{0})
        throw ConfigError("polling interval must be positive");
    if (config_.watch_measured_rail && !config_.nominal_rail)
        throw ConfigError("rail watchdog needs the fused VF table");
    config_.driver_retry.validate();
}

void PollingModule::stall(os::Kernel& kernel, unsigned cpu, Picoseconds delay) {
    const double f_mhz = kernel.machine().profile().freq_base.value();
    kernel.machine().add_steal(
        cpu, Cycles{static_cast<std::uint64_t>(
                 static_cast<double>(delay.value()) * f_mhz * 1e-6)});
}

std::optional<std::uint64_t> PollingModule::read_msr(os::Kernel& kernel,
                                                     unsigned poller_cpu,
                                                     unsigned target_cpu,
                                                     std::uint32_t addr) {
    os::MsrDriver& msr = kernel.msr();
    resilience::RetrySchedule sched(
        config_.driver_retry, mix_seed(mix_seed(config_.retry_seed, metrics_.polls), addr));
    while (sched.next_attempt()) {
        if (sched.backoff() > Picoseconds{0}) {
            stall(kernel, poller_cpu, sched.backoff());
            PV_TRACE_EVENT(trace::EventKind::RetryBackoff, "poll-read-retry",
                           kernel.machine().now().value(), addr, sched.attempts());
        }
        const os::MsrReadResult r = msr.try_rdmsr(poller_cpu, target_cpu, addr);
        if (r.status == os::MsrStatus::Ok) {
            if (r.stale) ++metrics_.stale_reads;
            return r.value;
        }
        ++metrics_.read_retries;
    }
    return std::nullopt;
}

bool PollingModule::write_msr(os::Kernel& kernel, unsigned poller_cpu,
                              unsigned target_cpu, std::uint32_t addr,
                              std::uint64_t value, bool* applied) {
    os::MsrDriver& msr = kernel.msr();
    resilience::RetrySchedule sched(
        config_.driver_retry,
        mix_seed(mix_seed(config_.retry_seed, ~metrics_.polls), addr));
    while (sched.next_attempt()) {
        if (sched.backoff() > Picoseconds{0}) {
            stall(kernel, poller_cpu, sched.backoff());
            PV_TRACE_EVENT(trace::EventKind::RetryBackoff, "poll-write-retry",
                           kernel.machine().now().value(), addr, sched.attempts());
        }
        const os::MsrWriteResult r = msr.try_wrmsr(poller_cpu, target_cpu, addr, value);
        if (r.status == os::MsrStatus::Ok) {
            if (applied != nullptr) *applied = r.applied;
            return true;
        }
        ++metrics_.write_retries;
    }
    return false;
}

void PollingModule::fail_closed(os::Kernel& kernel, unsigned poller_cpu,
                                unsigned target_cpu) {
    ++metrics_.missed_polls;
    // Unknown state is treated as hostile state: with the status MSRs
    // unreadable the module clamps the commanded offset to the maximal
    // safe state (safe at EVERY frequency) instead of skipping the poll
    // — the defense never dwells blind and unclamped beyond the read
    // retry budget.
    const std::uint64_t raw = sim::encode_offset(table_.maximal_safe(), sim::VoltagePlane::Core);
    bool applied = false;
    if (write_msr(kernel, poller_cpu, target_cpu, sim::kMsrOcMailbox, raw, &applied) &&
        applied) {
        ++metrics_.fail_closed_clamps;
        PV_TRACE_EVENT(trace::EventKind::SafeStateRewrite, "fail-closed-clamp",
                       kernel.machine().now().value(), raw, target_cpu);
    }
    log_debug("plugvolt: poll of cpu ", target_cpu,
              " lost its status reads; fail-closed clamp to ", table_.maximal_safe().value(),
              " mV");
}

void PollingModule::clamp_frequencies(os::Kernel& kernel, unsigned poller_cpu,
                                      Megahertz f_safe) {
    const auto ratio = static_cast<std::uint64_t>(f_safe.value() / 100.0 + 0.5) & 0xFF;
    const unsigned cores = kernel.machine().core_count();
    for (unsigned cpu = 0; cpu < cores; ++cpu) {
        // The read only exists to skip cores already at or below the
        // limit; if it cannot be had, clamp unconditionally (writing a
        // redundant safe ratio is harmless, skipping a hot core is not).
        const std::optional<std::uint64_t> cur =
            read_msr(kernel, poller_cpu, cpu, sim::kMsrPerfCtl);
        if (cur && static_cast<double>((*cur >> 8) & 0xFF) * 100.0 <= f_safe.value())
            continue;
        bool applied = false;
        if (write_msr(kernel, poller_cpu, cpu, sim::kMsrPerfCtl, ratio << 8, &applied) &&
            applied) {
            ++metrics_.freq_drops;
            PV_TRACE_EVENT(trace::EventKind::FreqClamp, "freq-clamp",
                           kernel.machine().now().value(), cpu, ratio);
        }
    }
}

void PollingModule::poll_cpu(os::Kernel& kernel, unsigned poller_cpu, unsigned target_cpu) {
    ++metrics_.polls;
    const Picoseconds poll_time = kernel.machine().now();
    PV_TRACE_EVENT_FINE(trace::EventKind::PollIteration, "poll", poll_time.value(),
                        poller_cpu, target_cpu);
    if (target_cpu < last_poll_.size()) {
        if (last_poll_[target_cpu] > Picoseconds{0})
            poll_gap_us_.observe((poll_time - last_poll_[target_cpu]).microseconds());
        last_poll_[target_cpu] = poll_time;
    }
    // Algo. 3 lines 4-5: read frequency from 0x198 and offset from 0x150.
    // We additionally read the *requested* ratio from 0x199: a pending
    // P-state raise onto a deep offset is already an attack in flight
    // (VoltJockey direction) and must be caught before the PCU finishes
    // ramping the rail up.  Each read retries per driver_retry; any read
    // that exhausts its budget abandons the poll and fails closed.
    const std::optional<std::uint64_t> perf_read =
        read_msr(kernel, poller_cpu, target_cpu, sim::kMsrPerfStatus);
    const std::optional<std::uint64_t> ctl_read =
        perf_read ? read_msr(kernel, poller_cpu, target_cpu, sim::kMsrPerfCtl)
                  : std::nullopt;
    const std::optional<std::uint64_t> ocm_read =
        ctl_read ? read_msr(kernel, poller_cpu, target_cpu, sim::kMsrOcMailbox)
                 : std::nullopt;
    if (!ocm_read) {
        fail_closed(kernel, poller_cpu, target_cpu);
        return;
    }
    const std::uint64_t perf = *perf_read;
    const auto effective_ratio = static_cast<std::uint8_t>((perf >> 8) & 0xFF);
    const auto ratio =
        std::max(effective_ratio, static_cast<std::uint8_t>((*ctl_read >> 8) & 0xFF));
    const Megahertz effective{static_cast<double>(effective_ratio) * 100.0};
    const Megahertz freq{static_cast<double>(ratio) * 100.0};
    const std::uint64_t ocm = *ocm_read;
    const auto req = sim::decode_offset(ocm);
    const Millivolts commanded = req ? req->offset : Millivolts{0.0};
    // The mailbox reports the deepest commanded plane; restores must
    // target THAT plane (a cache-plane undervolt faults the load path —
    // rewriting the core plane would leave it armed).
    const sim::VoltagePlane plane = req ? req->plane : sim::VoltagePlane::Core;

    // Defense-in-depth rail watchdog: a rail pulled down WITHOUT a
    // matching mailbox command means hardware injection on the SVID bus.
    if (config_.watch_measured_rail) {
        // Blank the residual check while a legitimate command is still
        // settling (the module knows the regulator's latency/slew specs).
        if (commanded != last_commanded_) {
            const auto& reg = kernel.machine().profile().regulator;
            const double delta_mv = std::abs((commanded - last_commanded_).value());
            blank_until_ = kernel.machine().now() + reg.write_latency +
                           microseconds(delta_mv / reg.slew_mv_per_us + 20.0);
            last_commanded_ = commanded;
        }
        if (kernel.machine().now() >= blank_until_) {
            const double measured_v =
                static_cast<double>((perf >> 32) & 0xFFFF) / 8192.0 * 1000.0;
            const Millivolts measured_offset =
                Millivolts{measured_v} - config_.nominal_rail->nominal(effective);
            const Millivolts residual = measured_offset - commanded;
            if (residual < -config_.rail_watch_margin) {
                ++metrics_.rail_watch_detections;
                metrics_.last_detection = kernel.machine().now();
                PV_TRACE_EVENT(trace::EventKind::Instant, "rail-watch-detection",
                               kernel.machine().now().value(),
                               static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(measured_offset.value())),
                               target_cpu);
                // The mailbox cannot out-write a bus interposer; the
                // frequency lever is the one the attacker cannot reach.
                clamp_frequencies(kernel, poller_cpu, table_.frequency_limit(measured_offset));
            }
        }
    }

    // Algo. 3 line 6: membership test against the unsafe state set (the
    // guard band and hysteresis are the table's).
    if (!table_.detects(ratio, commanded)) return;

    ++metrics_.detections;
    metrics_.last_detection = kernel.machine().now();
    PV_TRACE_EVENT(trace::EventKind::Instant, "unsafe-detected",
                   kernel.machine().now().value(),
                   static_cast<std::uint64_t>(freq.value()), ocm);
    // How long was the unsafe offset armed before we saw it?  Measured
    // from the mailbox write that commanded it (hardware injection has
    // no mailbox trace and is excluded by the zero check).
    const Picoseconds armed = kernel.machine().last_ocm_write_time();
    if (armed > Picoseconds{0} && kernel.machine().now() >= armed)
        unsafe_dwell_us_.observe((kernel.machine().now() - armed).microseconds());

    // Algo. 3 line 7: force the system back into a safe state.  Two
    // levers, pulled in order of immediacy:
    //  1. frequency (instant, always the safe direction): cancel any
    //     pending raise outright (back to the effective frequency — the
    //     rail may still be parked deep, so completing the raise at ANY
    //     higher P-state is a transition-window gamble), and never above
    //     the highest frequency safe for the commanded offset;
    //  2. voltage (slow: wrmsr latency + regulator ramp): restore the
    //     offset per the configured policy.
    const Megahertz f_safe = std::min(effective, table_.frequency_limit(commanded));
    // on_each_cpu: the rail is package-wide, so a pending raise on ANY
    // core keeps the package target high -- cancel them all.
    if (freq > f_safe) clamp_frequencies(kernel, poller_cpu, f_safe);

    const Millivolts safe = table_.restore_target(ratio);
    const std::uint64_t raw = sim::encode_offset(safe, plane);
    bool applied = false;
    if (write_msr(kernel, poller_cpu, target_cpu, sim::kMsrOcMailbox, raw, &applied) &&
        applied) {
        ++metrics_.restore_writes;
        PV_TRACE_EVENT(trace::EventKind::SafeStateRewrite, "safe-state-rewrite",
                       kernel.machine().now().value(), raw,
                       static_cast<std::uint64_t>(plane));
    }
    log_debug("plugvolt: unsafe state at f=", freq.value(), " MHz, offset=",
              commanded.value(), " mV -> restoring ", safe.value(), " mV");
}

trace::MetricsSnapshot PollingModule::metrics_snapshot() const {
    trace::MetricsRegistry reg;
    reg.counter("polls") = metrics_.polls;
    reg.counter("detections") = metrics_.detections;
    reg.counter("restore_writes") = metrics_.restore_writes;
    reg.counter("freq_drops") = metrics_.freq_drops;
    reg.counter("rail_watch_detections") = metrics_.rail_watch_detections;
    reg.counter("read_retries") = metrics_.read_retries;
    reg.counter("write_retries") = metrics_.write_retries;
    reg.counter("stale_reads") = metrics_.stale_reads;
    reg.counter("missed_polls") = metrics_.missed_polls;
    reg.counter("fail_closed_clamps") = metrics_.fail_closed_clamps;
    reg.gauge("last_detection_us") = metrics_.last_detection.microseconds();
    trace::MetricsSnapshot out = reg.snapshot();
    auto freeze = [&out](const char* name, const trace::Histogram& h) {
        trace::MetricValue v;
        v.kind = trace::MetricValue::Kind::Histogram;
        v.count = h.count();
        v.value = h.sum();
        v.bounds = h.bounds();
        v.buckets = h.buckets();
        out.set(name, std::move(v));
    };
    freeze("poll_gap_us", poll_gap_us_);
    freeze("unsafe_dwell_us", unsafe_dwell_us_);
    return out;
}

void PollingModule::init(os::Kernel& kernel) {
    const unsigned cores = kernel.machine().core_count();
    last_poll_.assign(cores, Picoseconds{});
    if (config_.per_core_threads) {
        for (unsigned cpu = 0; cpu < cores; ++cpu) {
            kthreads_.push_back(kernel.start_kthread(
                {.name = "plugvolt/" + std::to_string(cpu), .cpu = cpu,
                 .period = config_.interval},
                [this, cpu](os::Kernel& k) { poll_cpu(k, cpu, cpu); }));
        }
    } else {
        kthreads_.push_back(kernel.start_kthread(
            {.name = "plugvolt/0", .cpu = 0, .period = config_.interval},
            [this, cores](os::Kernel& k) {
                for (unsigned cpu = 0; cpu < cores; ++cpu) poll_cpu(k, 0, cpu);
            }));
    }
}

void PollingModule::exit(os::Kernel& kernel) {
    for (const os::KthreadId id : kthreads_) kernel.stop_kthread(id);
    kthreads_.clear();
}

}  // namespace pv::plugvolt
