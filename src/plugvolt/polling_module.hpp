// PlugVolt — the polling countermeasure kernel module (Sec. 4.3, Algo. 3).
//
// A kernel module whose kthread(s) poll MSR 0x198 (frequency + measured
// voltage) and MSR 0x150 (commanded offset) on every core, look the
// (ratio byte, offset) pair up in a LimitTable compiled from the
// characterized safe-state map, and on detecting an unsafe state rewrite
// 0x150 to force the system back into a safe state.  The restore policy
// (limit_table.hpp) picks the offset written back:
//   - ClampToSafeLimit (default): write the deepest still-safe offset for
//     the current frequency — benign undervolting keeps working, the
//     paper's headline advantage over access-control defenses;
//   - ClampToMaximalSafe: hold the Sec. 5 maximal safe state;
//   - RestoreZero: write offset 0 (most conservative).
//
// Two threading layouts, both measured by the ablation bench:
//   - one kthread per core polling local MSRs (default — what per-CPU
//     kernel workers would do; cheapest);
//   - a single kthread on one core polling every core via IPIs (the
//     literal reading of Algo. 3's "for each CPU core" loop).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "os/kernel.hpp"
#include "plugvolt/limit_table.hpp"
#include "resilience/retry.hpp"
#include "sim/vf_curve.hpp"
#include "trace/metrics.hpp"

namespace pv::plugvolt {

/// Module configuration.
struct PollingConfig {
    Picoseconds interval = microseconds(50.0);
    bool per_core_threads = true;
    RestorePolicy restore = RestorePolicy::ClampToSafeLimit;
    /// Safety margin the module's LimitTable applies.
    Millivolts guard_band = kDefaultGuardBand;

    /// Rail watchdog (defense-in-depth beyond the paper): compare the
    /// MEASURED voltage (0x198 bits 47:32) against what the mailbox
    /// commanded.  A persistently more-negative residual means something
    /// other than software is pulling the rail — a hardware SVID
    /// interposer (VoltPillager).  The mailbox cannot fix that, but the
    /// frequency lever is instant and attacker-unreachable from the bus:
    /// the module clamps the P-state so the injected rail becomes safe.
    bool watch_measured_rail = false;
    /// Residual threshold before the watchdog fires.
    Millivolts rail_watch_margin{30.0};
    /// The fused VF table (vendor data a real module ships with); needed
    /// to convert the measured voltage into an offset.  Required when
    /// watch_measured_rail is set.
    std::optional<sim::VfCurve> nominal_rail;

    /// Retry budget for driver accesses inside one poll.  A read that
    /// exhausts it FAIL-CLOSES: the module clamps the commanded offset
    /// to the maximal safe state rather than dwell blind — an attacker
    /// who can starve the status reads must not buy an unguarded window.
    resilience::RetryPolicy driver_retry{};
    /// Seed of the deterministic retry-jitter stream.
    std::uint64_t retry_seed = 0x5AFE'0001;
};

/// Runtime counters exposed by the module (like a sysfs stats file).
struct PollingMetrics {
    std::uint64_t polls = 0;            ///< per-core poll iterations
    std::uint64_t detections = 0;       ///< unsafe states detected
    std::uint64_t restore_writes = 0;   ///< 0x150 rewrites issued
    std::uint64_t freq_drops = 0;       ///< instant 0x199 safety clamps issued
    std::uint64_t rail_watch_detections = 0;  ///< hardware-injection residuals seen
    std::uint64_t read_retries = 0;     ///< faulted status reads absorbed by retry
    std::uint64_t write_retries = 0;    ///< faulted restore writes absorbed by retry
    std::uint64_t stale_reads = 0;      ///< torn reads served a previous value
    std::uint64_t missed_polls = 0;     ///< polls abandoned: read budget exhausted
    std::uint64_t fail_closed_clamps = 0;  ///< maximal-safe clamps forced by misses
    Picoseconds last_detection{};       ///< timestamp of the latest detection
};

/// The countermeasure module.  Load with Kernel::load_module; its load
/// state is what the paper proposes adding to SGX attestation reports.
class PollingModule final : public os::KernelModule {
public:
    PollingModule(SafeStateMap map, PollingConfig config);

    [[nodiscard]] std::string_view name() const override { return kModuleName; }
    void init(os::Kernel& kernel) override;
    void exit(os::Kernel& kernel) override;

    [[nodiscard]] const PollingMetrics& metrics() const { return metrics_; }
    [[nodiscard]] const SafeStateMap& map() const { return table_.map(); }
    [[nodiscard]] const PollingConfig& config() const { return config_; }

    /// Counters plus latency histograms ("poll_gap_us": observed gap
    /// between consecutive polls of the same core; "unsafe_dwell_us":
    /// virtual time between the mailbox write that armed an unsafe state
    /// and the module's restoring rewrite).  Merged into campaign cell
    /// metrics under the "polling." prefix.
    [[nodiscard]] trace::MetricsSnapshot metrics_snapshot() const;

    static constexpr std::string_view kModuleName = "plugvolt";

private:
    /// One poll of `target_cpu` from `poller_cpu` (Algo. 3 body).
    void poll_cpu(os::Kernel& kernel, unsigned poller_cpu, unsigned target_cpu);

    /// Drop every core's requested frequency to at most `f_safe`.
    void clamp_frequencies(os::Kernel& kernel, unsigned poller_cpu, Megahertz f_safe);

    /// Burn `delay` on `cpu` as stolen cycles (a kthread cannot advance
    /// the machine clock from inside its own callback).
    void stall(os::Kernel& kernel, unsigned cpu, Picoseconds delay);

    /// Retried driver read; nullopt once the budget is exhausted (the
    /// caller must fail closed, never act on unknown state).
    [[nodiscard]] std::optional<std::uint64_t> read_msr(os::Kernel& kernel,
                                                        unsigned poller_cpu,
                                                        unsigned target_cpu,
                                                        std::uint32_t addr);

    /// Retried driver write; false once the budget is exhausted.
    bool write_msr(os::Kernel& kernel, unsigned poller_cpu, unsigned target_cpu,
                   std::uint32_t addr, std::uint64_t value, bool* applied);

    /// The degradation path: a poll that cannot read its status MSRs
    /// clamps the commanded offset to the maximal safe state.
    void fail_closed(os::Kernel& kernel, unsigned poller_cpu, unsigned target_cpu);

    LimitTable table_;
    Millivolts last_commanded_{};   // rail-watch blanking state
    Picoseconds blank_until_{};
    PollingConfig config_;
    PollingMetrics metrics_;
    trace::Histogram poll_gap_us_;
    trace::Histogram unsafe_dwell_us_;
    std::vector<Picoseconds> last_poll_;  // per-core, for the gap histogram
    std::vector<os::KthreadId> kthreads_;
};

}  // namespace pv::plugvolt
