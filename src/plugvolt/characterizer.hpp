// PlugVolt — empirical safe/unsafe characterization (Sec. 4.2, Algo. 2).
//
// Reproduces the paper's two-thread framework for one (frequency,
// offset) cell: a DVFS thread that pins the frequency and commands the
// negative offset (written to MSR 0x150 through the userspace msr-tools
// path), and an EXECUTE thread running 10^6 imul iterations.  Cells with
// wrong products are unsafe.  The sweep over the Cartesian product of
// table frequencies and offsets — each column pushed deeper until the
// machine crashes, producing the data behind Figs. 2-4 — is driven by
// ParallelCharacterizer (parallel_characterizer.hpp).
#pragma once

#include <cstdint>

#include "os/cpupower.hpp"
#include "os/kernel.hpp"
#include "resilience/retry.hpp"

namespace pv::plugvolt {

/// Sweep parameters (defaults are the paper's).
struct CharacterizerConfig {
    Millivolts sweep_floor{-300.0};   ///< deepest offset tried (paper: -300 mV)
    Millivolts offset_step{1.0};      ///< offset resolution (paper: 1 mV)
    std::uint64_t ops_per_cell = 1'000'000;  ///< EXECUTE iterations per cell
    unsigned dvfs_core = 0;           ///< core the DVFS thread runs on
    unsigned execute_core = 1;        ///< core the EXECUTE thread runs on
    /// Instruction the EXECUTE thread hammers.  The paper uses imul (the
    /// longest path, hence the shallowest onsets — the conservative
    /// choice for a defense map); other classes characterize shallower
    /// paths, e.g. FpMul for AES-NI-style victims.
    sim::InstrClass instr_class = sim::InstrClass::Imul;
    /// Pin the die to this temperature at the start of every cell
    /// (0 = leave the thermal model alone).  Characterizing HOT is the
    /// worst case: timing margins shrink with temperature, so a map
    /// taken at the maximum expected die temperature stays conservative
    /// at runtime (see bench_thermal).
    double die_preheat_c = 0.0;
    /// Retry budget for the mailbox writes that drive each cell.  An
    /// injected EIO / busy mailbox / IPI timeout is retried after a
    /// deterministic backoff (charged on the machine clock); only an
    /// exhausted budget aborts the sweep with DriverError.
    resilience::RetryPolicy retry{};
};

/// Number of offset steps one full column visits (floor / step).
[[nodiscard]] std::uint64_t sweep_steps(const CharacterizerConfig& config);

/// Result of probing one (frequency, offset) cell.
struct CellResult {
    std::uint64_t faults = 0;
    bool crashed = false;
};

/// The Algorithm 2 cell probe; ParallelCharacterizer drives the sweep.
class Characterizer {
public:
    Characterizer(os::Kernel& kernel, CharacterizerConfig config);

    /// Probe one cell: pin all cores to `f`, command `offset`, wait for
    /// the rail, run the EXECUTE loop, restore nominal settings.  If the
    /// machine crashes the caller's machine is left crashed (reboot is
    /// the sweep driver's job, as on real hardware).
    [[nodiscard]] CellResult test_cell(Megahertz f, Millivolts offset);

    /// test_cell for a machine whose cores are already pinned to `f`
    /// with the rail settled (the state pin_frequency() leaves behind,
    /// or a restored snapshot of it).  Skips the per-cell cpupower pass
    /// — provably state-neutral under that precondition, which is the
    /// same invariant that makes the sweep engine's snapshot restore
    /// sound — so the probe hot path pays only the cell's own physics.
    [[nodiscard]] CellResult test_cell_pinned(Megahertz f, Millivolts offset);

    /// Pin all cores to `f` and wait for the P-state raise to complete.
    /// Draws no random numbers, so the machine state afterwards is a
    /// pure function of (boot state, f) — which is what lets the sweep
    /// engine snapshot the pinned state once per row and restore it per
    /// cell instead of re-simulating the boot -> row-frequency ramp.
    /// test_cell()'s own frequency_set then finds every core already at
    /// `f` and is state-neutral.
    void pin_frequency(Megahertz f);

    /// Non-Ok mailbox write attempts absorbed by the retry budget since
    /// construction (0 unless a fault injector is attached upstream).
    [[nodiscard]] std::uint64_t msr_retries() const { return msr_retries_; }

    /// sweep_steps(config()).
    [[nodiscard]] std::uint64_t sweep_steps() const { return plugvolt::sweep_steps(config_); }

    /// Offset commanded at 1-based step `s` (step 1 is one offset_step
    /// below nominal; sweep_steps() is the floor).
    [[nodiscard]] Millivolts offset_at_step(std::uint64_t s) const;

    /// The `crash` field value for a column that never crashed: one step
    /// below the sweep floor, so nothing inside the sweep classifies as
    /// Crash.
    [[nodiscard]] Millivolts no_crash_sentinel() const {
        return config_.sweep_floor - config_.offset_step;
    }

    [[nodiscard]] const CharacterizerConfig& config() const { return config_; }

private:
    /// Command `offset` on the Core plane through the mailbox, retrying
    /// environment faults per config_.retry with backoffs salted by
    /// `salt` (a pure function of the cell, so injected-fault runs
    /// replay bit-exactly regardless of worker assignment).  Returns
    /// false when the machine crashed while waiting out a backoff;
    /// throws DriverError once the budget is exhausted.
    bool command_offset(Millivolts offset, std::uint64_t salt);

    /// Shared cell protocol; `assume_pinned` elides the DVFS thread's
    /// frequency pass when the caller guarantees it would be a no-op.
    [[nodiscard]] CellResult test_cell_impl(Megahertz f, Millivolts offset,
                                            bool assume_pinned);

    os::Kernel& kernel_;
    os::Cpupower cpupower_;
    CharacterizerConfig config_;
    std::uint64_t msr_retries_ = 0;
};

}  // namespace pv::plugvolt
