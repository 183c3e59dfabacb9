// PlugVolt — the simulated package.
//
// Machine is the substrate every other layer runs on: it owns the cores,
// the package voltage regulator, the MSR surface (0x150 overclocking
// mailbox, 0x198 IA32_PERF_STATUS, 0x199 IA32_PERF_CTL, the hypothetical
// MSR_VOLTAGE_OFFSET_LIMIT), the discrete-event queue and the fault
// physics.  It is single-threaded and deterministic for a given seed.
//
// Faithfulness notes mirrored from real Intel behaviour:
//  - MSR 0x150 is *package* scope; the undervolt offset applies to every
//    core.  Frequency (0x199) is per-core.
//  - The package rail follows the fastest active core's VF point; the
//    OCM offset is added on top.  This is why attacks pin all cores to
//    the target frequency before undervolting.
//  - P-state transitions are sequenced by the (modeled) PCU the way real
//    hardware does it: on a frequency RAISE the rail ramps up to the new
//    P-state's nominal voltage first and the frequency switches only
//    when the rail is ready; a frequency LOWER takes effect immediately
//    (safe direction) and the rail sags afterwards.  This sequencing is
//    load-bearing for the defense analysis: it is the physical delay a
//    polling countermeasure races against on VoltJockey-style attacks.
//  - wrmsr can be interposed: write hooks model microcode assists and
//    hardware clamps (the paper's Sec. 5 deployments) as well as Intel's
//    SA-00289 access-control patch.
//  - A deep enough undervolt does not compute wrong values politely —
//    it crashes the machine.  Machine exposes reboot() and an on-reset
//    callback list so persistent services (the polling module) can
//    re-arm, exactly like a module loaded at boot.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/invariant_registry.hpp"
#include "sim/core.hpp"
#include "sim/cpu_profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_model.hpp"
#include "sim/instr.hpp"
#include "sim/ocm.hpp"
#include "sim/power.hpp"
#include "sim/thermal.hpp"
#include "sim/voltage_regulator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pv::sim {

/// Verdict of a wrmsr write hook.
enum class MsrWriteAction {
    Allow,   ///< proceed (the hook may have mutated the value — a clamp)
    Ignore,  ///< drop the write silently (microcode write-ignore)
};

/// Result of running a batch of identical operations on one core.
struct BatchResult {
    std::uint64_t ops_done = 0;
    std::uint64_t faults = 0;
    bool crashed = false;
    Picoseconds started{};
    Picoseconds finished{};
};

/// Result of a run of single-stepped operations (Machine::execute_ops).
struct OpRunResult {
    /// Ops run, the last one included when it faulted or the machine
    /// crashed during it; 0 on a machine that was already crashed.
    std::size_t ops_done = 0;
    bool faulted = false;  ///< the last op faulted (and did not crash)
};

/// Result of one faultable 64x64 multiply.
struct ImulResult {
    std::uint64_t value = 0;
    bool faulted = false;
};

/// How run_batch() traverses a settled execution window.  Both modes
/// perform IDENTICAL physics and RNG operations — machine histories are
/// bit-identical by construction.  Sliced additionally walks every
/// window at the legacy 50 us granularity re-validating the
/// window-anchor assumptions (no due event, no rail movement, no fault-
/// probability drift inside the window) with read-only queries; it is
/// the reference the perfpath differential tests run whole sweeps and
/// campaign cubes under.  See DESIGN 5f for the soundness argument.
enum class SteppingMode {
    Batched,  ///< one closed-form step per settled window (production)
    Sliced,   ///< fine-grained re-validating traversal (verification)
};

/// Direct-mapped memo of TimingModel::path_delay_ps(v), the one pow of
/// the fault physics and its only voltage-dependent part.  Keyed on the
/// full 64-bit pattern of v, so a hit returns exactly what a recompute
/// would; every slot holds a genuine (v, delay) pair from the start (the
/// 0 mV one), so there is no empty marker for a voltage to alias.
class PathDelayMemo {
public:
    explicit PathDelayMemo(TimingModel timing) : timing_(std::move(timing)) {
        slots_.fill({0, timing_.path_delay_ps(Millivolts{0.0})});  // bits of +0.0 are 0
    }
    [[nodiscard]] double get(Millivolts v) {
        const auto bits = std::bit_cast<std::uint64_t>(v.value());
        // Multiplicative hash: round mV values differ only in high bits.
        Entry& e = slots_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits)];
        if (e.bits != bits) e = {bits, timing_.path_delay_ps(v)};
        return e.delay_ps;
    }

private:
    static constexpr unsigned kSlotBits = 10;
    struct Entry {
        std::uint64_t bits;
        double delay_ps;
    };
    TimingModel timing_;
    std::array<Entry, std::size_t{1} << kSlotBits> slots_;
};

/// The simulated package (cores + regulator + MSRs + physics + clock).
class Machine {
public:
    using WriteHook =
        std::function<MsrWriteAction(unsigned core_id, std::uint32_t addr, std::uint64_t& value)>;
    using ResetCallback = std::function<void()>;

    /// Traversal-work counters (NOT part of state_hash(): they measure
    /// how the simulator walked the history, not the history itself —
    /// but they ARE deterministic per cell, so campaign fingerprints may
    /// include them).  Zeroed by reset(seed).
    struct Stats {
        std::uint64_t events_dispatched = 0;  ///< event-loop callbacks run
        std::uint64_t batched_iterations = 0; ///< ops retired via settled windows
        std::uint64_t batch_windows = 0;      ///< closed-form windows taken
        std::uint64_t heap_peak = 0;          ///< event-heap high-water mark
    };

    Machine(CpuProfile profile, std::uint64_t seed);

    // --- identity & time -------------------------------------------------
    [[nodiscard]] const CpuProfile& profile() const { return profile_; }
    [[nodiscard]] Picoseconds now() const { return clock_; }
    /// Mutable access to the queue counts as a write (DESIGN 5f, "Settled-
    /// op stretch"), as do the other non-const accessors below.
    [[nodiscard]] EventQueue& events() {
        touch();
        return events_;
    }

    /// Advance the clock to absolute time `t`, dispatching due events and
    /// checking for undervolt crashes at every event boundary.  Stops
    /// early (clock frozen at crash time) if the machine crashes.
    void advance_to(Picoseconds t);
    void advance(Picoseconds dt) { advance_to(clock_ + dt); }

    // --- cores & frequency -----------------------------------------------
    [[nodiscard]] unsigned core_count() const { return static_cast<unsigned>(cores_.size()); }
    /// The non-const overload counts as a write, like events().
    [[nodiscard]] Core& core(unsigned id);
    [[nodiscard]] const Core& core(unsigned id) const;

    /// Request a core's P-state frequency, snapped to the 100 MHz table
    /// and clamped to the profile's range.  Lowering takes effect
    /// immediately; raising is voltage-first: the effective frequency
    /// switches only once the rail has ramped to the new nominal.
    void set_core_frequency(unsigned id, Megahertz f);

    /// Request every core's frequency (what `cpupower` does by default).
    void set_all_frequencies(Megahertz f);

    /// The last requested (PERF_CTL) frequency for a core; may be above
    /// the effective frequency while a raise is pending on the rail.
    [[nodiscard]] Megahertz requested_frequency(unsigned id) const;

    /// Fastest effective frequency among active cores.
    [[nodiscard]] Megahertz max_active_frequency() const;

    // --- idle states ---------------------------------------------------
    /// Put a core into an idle state.  C6 power-gates it: its leakage
    /// stops and it no longer constrains the package rail.  Entering C0
    /// is equivalent to wake_core().
    void enter_cstate(unsigned id, CState state);

    /// Wake a core to C0.  Exit latency is charged as stolen time, and a
    /// core waking onto a sagged rail comes up at the highest P-state
    /// the rail supports right now (its request re-arms the PCU raise).
    void wake_core(unsigned id);

    /// Time when both rails (base P-state rail and OCM offset) settle
    /// and any pending frequency raise has switched.
    [[nodiscard]] Picoseconds rail_settle_time() const;

    // --- voltage -----------------------------------------------------------
    /// Package core-plane voltage right now: the base P-state rail plus
    /// the applied OCM offset.
    [[nodiscard]] Millivolts package_voltage() const;

    /// Voltage of a specific plane (base rail + that plane's offset).
    /// Only the Core and Cache planes feed modeled fault paths: loads
    /// traverse the cache SRAM, everything else the core logic.
    [[nodiscard]] Millivolts plane_voltage(VoltagePlane plane) const;

    /// Currently applied (post-ramp) offset on a plane.
    [[nodiscard]] Millivolts applied_offset(VoltagePlane plane) const;

    [[nodiscard]] VoltageRegulator& regulator() {
        touch();
        return regulator_;
    }
    [[nodiscard]] const VoltageRegulator& regulator() const { return regulator_; }

    // --- MSR surface --------------------------------------------------------
    /// Architectural rdmsr.  0x198 is synthesized from live state; 0x150
    /// reads back the current core-plane target offset.
    [[nodiscard]] std::uint64_t read_msr(unsigned core_id, std::uint32_t addr) const;

    /// Architectural wrmsr.  Returns true if the write took effect;
    /// false if an installed hook (microcode/hardware countermeasure,
    /// access-control patch) ignored it.
    bool write_msr(unsigned core_id, std::uint32_t addr, std::uint64_t value);

    /// Interpose on wrmsr (hooks run in registration order).  Returns a
    /// token for removal.
    std::size_t add_write_hook(WriteHook hook);
    void remove_write_hook(std::size_t token);

    // --- execution -----------------------------------------------------------
    /// Run `n_ops` operations of class `c` back-to-back on a core,
    /// advancing simulated time (slice-wise, so concurrent events — e.g.
    /// a polling kthread — interleave correctly and voltage ramps are
    /// sampled finely).  `cpi` is cycles per operation.  Throws
    /// ConfigError, before any state change, for a `cpi` that is not
    /// positive and finite and for work whose window or op count does not
    /// fit the clock's range.
    BatchResult run_batch(unsigned core_id, InstrClass c, std::uint64_t n_ops, double cpi = 1.0);

    /// Execute `ops` one after another on a core, each an op of its
    /// class, and stop after the first that faults or crashes the
    /// machine: the same history as one execute_op per element, stopping
    /// at the first that returns true or leaves the machine crashed.  With
    /// the rails settled, the ops that end before the next event take one
    /// loop over cached physics, their operating point derived once per
    /// stretch of unchanged machine state (DESIGN 5f); Sliced machines
    /// take the general path through advance_to for every op, the
    /// reference for that loop.  Rejects `cpi` like run_batch.
    OpRunResult execute_ops(unsigned core_id, std::span<const InstrClass> ops, double cpi = 1.0);

    /// Execute one operation (a run of one); returns whether it faulted.
    bool execute_op(unsigned core_id, InstrClass c, double cpi = 1.0) {
        return execute_ops(core_id, std::span<const InstrClass>(&c, 1), cpi).faulted;
    }

    /// One faultable 64x64->64 multiply on a core (wrapping semantics);
    /// faults corrupt the product the way undervolted multipliers do.
    ImulResult faulty_imul(unsigned core_id, std::uint64_t a, std::uint64_t b);

    /// Charge kernel work to a core; concurrently running workload
    /// windows observe it as stolen time.
    void add_steal(unsigned core_id, Cycles cycles);

    // --- physics ----------------------------------------------------------------
    [[nodiscard]] const FaultModel& fault_model() const { return fault_model_; }

    /// Package energy accounting (also exposed via the RAPL MSRs 0x606
    /// and 0x611): dynamic energy per retired instruction at the live
    /// rail voltage plus continuously integrated leakage.
    [[nodiscard]] const PowerModel& power() const { return power_; }

    /// Die thermal state (exposed via IA32_THERM_STATUS 0x19C and
    /// IA32_TEMPERATURE_TARGET 0x1A2).  Hot silicon is slower: the
    /// fault physics consume thermal().delay_scale().
    [[nodiscard]] const ThermalModel& thermal() const { return thermal_; }

    /// Pin the die temperature (test/bench hook for preheated parts).
    void set_die_temperature(double celsius) { thermal_.force_temperature(celsius); }

    /// Instantaneous per-op fault probability on a core.
    [[nodiscard]] double fault_probability(unsigned core_id, InstrClass c) const;

    /// Corrupt a value the way an undervolt fault would (drawing from
    /// this machine's deterministic fault-sampling stream).
    [[nodiscard]] std::uint64_t corrupt_value(std::uint64_t correct);

    /// Virtual time of the last mailbox write that actually commanded
    /// the regulator (zero until one happens).  Observability only — the
    /// polling module uses it to histogram how long an unsafe offset
    /// dwelt before its rewrite.  Deliberately NOT part of state_hash():
    /// it duplicates information already hashed via the regulator.
    [[nodiscard]] Picoseconds last_ocm_write_time() const { return last_ocm_write_; }

    // --- crash / reboot ------------------------------------------------------------
    [[nodiscard]] bool crashed() const { return crashed_; }
    [[nodiscard]] const std::string& crash_reason() const { return crash_reason_; }
    [[nodiscard]] Picoseconds crash_time() const { return crash_time_; }

    /// Record a crash (undervolt past the control-path boundary, triple
    /// fault, ...).  Freezes execution until reboot().
    void crash(std::string reason);

    /// Reboot after a crash (or at will): restores boot defaults, clears
    /// the event queue, advances the clock by the boot delay and fires
    /// on-reset callbacks so persistent services re-arm.
    void reboot();

    /// Cheap full reset for reusable worker instances (the sharded
    /// characterization engine probes thousands of cells per machine):
    /// restores boot defaults like reboot(), but rewinds the clock to
    /// zero, reseeds the RNG and charges no boot delay — the machine is
    /// indistinguishable from a freshly constructed Machine(profile,
    /// seed) without re-running the constructor's profile validation.
    /// boot_count() restarts at 1; on-reset callbacks still fire so a
    /// hosted Kernel re-arms its services.
    void reset(std::uint64_t seed);

    /// Number of completed boots (starts at 1).
    [[nodiscard]] unsigned boot_count() const { return boot_count_; }

    // --- snapshot / restore -----------------------------------------------
    /// Opaque copy of the machine's complete dynamic state — everything
    /// reset() rebuilds, plus the live event queue — EXCEPT the RNG.
    /// Lets a driver replay a seed-independent prologue (e.g. the sweep
    /// engine's boot -> row-frequency pin, which draws no random numbers)
    /// without re-simulating it for every cell.  Snapshots are only
    /// valid on the machine that captured them: scheduled callbacks
    /// capture `this`.
    struct Snapshot {
        const Machine* owner = nullptr;
        Picoseconds clock;
        bool crashed = false;
        std::string crash_reason;
        Picoseconds crash_time;
        unsigned boot_count = 1;
        std::vector<Core> cores;
        std::vector<Megahertz> requested_freq;
        VoltageRegulator regulator;
        VoltageRegulator base_rail;
        PowerModel power;
        ThermalModel thermal;
        double energy_at_thermal_update = 0.0;
        EventQueue events;
        FlatMap<std::uint64_t, std::uint64_t> msr_storage;
        std::array<Millivolts, 5> mailbox_target{};
        Picoseconds last_ocm_write;
        std::uint64_t batched_iterations = 0;
        std::uint64_t batch_windows = 0;
    };

    /// Capture the dynamic state (the RNG is deliberately excluded).
    [[nodiscard]] Snapshot capture_snapshot() const;

    /// Restore a snapshot captured on THIS machine and reseed the RNG —
    /// bit-identical to re-running the captured history from reset(seed)
    /// provided that history drew no random numbers and that externally
    /// owned state (kernel threads, write hooks, invariants) has not
    /// changed since capture.  Does NOT fire on-reset callbacks: the
    /// restored event queue already carries any re-armed services.
    void restore_snapshot(const Snapshot& snap, std::uint64_t seed);

    /// Register a callback fired at the end of every reboot().
    void on_reset(ResetCallback cb) { reset_callbacks_.push_back(std::move(cb)); }

    /// Simulated boot duration charged by reboot().
    [[nodiscard]] Picoseconds reboot_delay() const { return reboot_delay_; }
    void set_reboot_delay(Picoseconds d) { reboot_delay_ = d; }

    // --- checking layer ------------------------------------------------------
    /// Runtime invariant registry.  The machine registers its own
    /// physical-plausibility invariants at construction and ticks the
    /// registry from the event loop; components and tests may register
    /// more.  Cadence defaults to every 64th tick at PV_CHECK_LEVEL >= 2
    /// and to disabled otherwise; registrations survive reboot()/reset().
    [[nodiscard]] check::InvariantRegistry& invariants() { return invariants_; }
    [[nodiscard]] const check::InvariantRegistry& invariants() const { return invariants_; }

    /// 64-bit fingerprint of the complete architectural + physical state
    /// (clock, cores, rails, MSRs, energy, thermal).  Two machines with
    /// equal hashes went through bit-identical histories — the
    /// determinism contract the parallel sweep engine is tested against.
    [[nodiscard]] std::uint64_t state_hash() const;

    // --- stepping & stats ----------------------------------------------------
    /// Per-instance traversal mode (defaults to default_stepping_mode()
    /// at construction).
    void set_stepping_mode(SteppingMode m) {
        touch();
        stepping_mode_ = m;
    }
    [[nodiscard]] SteppingMode stepping_mode() const { return stepping_mode_; }

    /// Process-wide default for newly constructed Machines.  The
    /// differential tests flip this to run whole engines (which build
    /// their Machines internally) under Sliced validation.  Thread-safe;
    /// set it between runs, not while machines are stepping.
    static void set_default_stepping_mode(SteppingMode m);
    [[nodiscard]] static SteppingMode default_stepping_mode();

    [[nodiscard]] Stats stats() const;

private:
    void restore_boot_state();
    void register_builtin_invariants();

    // A plane voltage and its path delay (TimingModel::path_delay_ps).
    struct PlanePoint {
        Millivolts v;
        double delay_ps;
    };
    void maybe_crash();
    void crash_if_violated(Megahertz f, double slack_ps, PlanePoint core, PlanePoint cache);
    [[nodiscard]] double leakage_scale() const;
    [[nodiscard]] Megahertz snap_to_table(Megahertz f) const;
    void apply_msr_semantics(unsigned core_id, std::uint32_t addr, std::uint64_t value);
    void update_rail_target();
    void apply_pending_raises();
    [[nodiscard]] Millivolts voltage_at(Picoseconds t) const;
    void integrate_power_to(Picoseconds t, Millivolts v_from, Millivolts v_to);
    // integrate_power_to's thermal half: the die update over [clock_, t].
    void heat_die_to(Picoseconds t);

    // The operating point a settled op reads: both plane voltages,
    // max_active_frequency(), the leaking-core count and the certificate
    // key built from them and the op core's frequency.
    using CertificateKey = std::array<std::uint64_t, 4>;
    struct OperatingPoint {
        Millivolts v_core;
        Millivolts v_cache;
        Megahertz f_max;
        std::uint64_t leaking = 0;
        CertificateKey key{};
        bool operator==(const OperatingPoint&) const = default;
    };
    [[nodiscard]] OperatingPoint operating_point(const Core& cr) const;
    [[nodiscard]] static Picoseconds op_duration(const Core& cr, double cpi);

    // Throws ConfigError unless `cpi` is positive and finite and
    // `n_ops` ops at the profile's lowest frequency end inside the
    // clock's range.
    void check_work(double cpi, std::uint64_t n_ops) const;

    // execute_ops' general op after wake-up and stolen time: returns
    // whether the op faulted and advances the clock to `end` (or to the
    // crash, whichever comes first) through advance_to.
    bool general_op(const Core& cr, InstrClass c, Picoseconds end);
    bool draw_fault(InstrClass c, double p);
    // Whether a draw `u` against probability `p` is a fault (traced).
    bool fault_drawn(InstrClass c, double u, double p);

    // A settled op's certificate for one instruction class (DESIGN 5f):
    // the plane delays and slacks of one settled operating point, and
    // two verdicts that hold at every delay scale up to scale_hi — a
    // draw u >= skip_below cannot fault, and crash_free rules out the
    // crash check.  Keyed on the bit patterns of the live state it was
    // built from (v_core, v_cache, the op core's frequency and
    // max_active_frequency()), so a hit is exact and no write has to
    // invalidate it.  It serves a pre-op delay scale in [scale_lo,
    // scale_hi]; scale_hi starts below every delay scale, so each
    // certificate starts stale.
    struct OpCertificate {
        CertificateKey key{};
        double scale_hi = 0.0;
        double scale_lo = 0.0;  // scale_hi - 2 kCertScaleStep
        double delay_core = 0.0;
        double delay_cache = 0.0;
        double slack_op = 0.0;   // at the op core's frequency
        double slack_max = 0.0;  // at max_active_frequency()
        double skip_below = 2.0;
        bool crash_free = false;
    };
    [[nodiscard]] OpCertificate certify(InstrClass c, const CertificateKey& key,
                                        Millivolts v_core, Millivolts v_cache, Megahertz f_op,
                                        Megahertz f_max, double scale) const;

    // Fault physics through the path-delay memo (bit-equal to FaultModel).
    [[nodiscard]] double memo_fault_probability(Megahertz f, Millivolts v, InstrClass c,
                                                double scale) const;

    // run_batch helpers: retire one settled window (single probability
    // eval, single binomial draw, single power/retire update), and the
    // Sliced-mode read-only re-validation of the window-anchor
    // assumptions at the legacy 50 us granularity.
    void retire_window(Core& cr, InstrClass c, std::uint64_t ops, Millivolts v, BatchResult& r);
    void validate_window(const Core& cr, InstrClass c, VoltagePlane plane, Millivolts v_anchor,
                         Picoseconds window) const;

    // Settled-op stretch (DESIGN 5f): what the first settled op of a
    // stretch on one core at one cpi derived from live state, and the per-op
    // constants that follow from it.  It stays current while generation_
    // does not move; every path that can change what a settled op reads
    // calls touch().
    struct Stretch {
        std::uint64_t generation = 0;  // generation_ starts at 1: none yet
        unsigned core = 0;
        double cpi = 0.0;
        Picoseconds dt{};  // the op's duration
        OperatingPoint point;
        double dt_s = 0.0;           // dt in seconds
        double decay = 1.0;          // the thermal decay over dt
        double retire_joules = 0.0;  // one op's dynamic energy at v_core
        double leak_joules = 0.0;    // the package leakage over dt
    };
    void record_stretch(const Core& cr, unsigned core_id, double cpi, Picoseconds dt);
    // Settled-op runs (DESIGN 5f): serve the current stretch for the
    // leading ops of `ops` that end strictly before the next event, in
    // one loop over locals, adding them to `r`.  False, with nothing
    // run, when the first op does not fit or the die's last thermal
    // update is not at the clock.
    bool serve_stretch(Core& cr, std::span<const InstrClass> ops, OpRunResult& r);
    void touch() { ++generation_; }
    [[nodiscard]] bool stretch_current(unsigned core_id, double cpi) const {
        return stretch_.generation == generation_ && stretch_.core == core_id &&
               stretch_.cpi == cpi;
    }
    // Sliced-mode read-only re-derivation of a current stretch from live
    // state; throws SimError on any difference.
    void check_stretch(const Core& cr) const;

    CpuProfile profile_;
    VfCurve vf_;
    FaultModel fault_model_;
    VoltageRegulator regulator_;   // OCM offset planes (with write latency)
    VoltageRegulator base_rail_;   // absolute P-state rail (PCU-sequenced)
    PowerModel power_;
    ThermalModel thermal_;
    double energy_at_thermal_update_ = 0.0;
    std::vector<Core> cores_;
    std::vector<Megahertz> requested_freq_;
    EventQueue events_;
    Rng rng_;
    Picoseconds clock_{};
    // The clock periods at the profile's highest and lowest frequency:
    // they bound every op's length (check_work).
    double shortest_period_ps_;
    double longest_period_ps_;

    FlatMap<std::uint64_t, std::uint64_t> msr_storage_;  // key: core<<32 | addr
    // What the MAILBOX was commanded per plane.  Normally equals the
    // regulator target; diverges under hardware (SVID bus) injection,
    // which is exactly what mailbox readback cannot see.
    std::array<Millivolts, 5> mailbox_target_{};
    Picoseconds last_ocm_write_{};
    std::vector<std::pair<std::size_t, WriteHook>> write_hooks_;
    std::size_t next_hook_token_ = 0;

    bool crashed_ = false;
    std::string crash_reason_;
    Picoseconds crash_time_{};
    unsigned boot_count_ = 1;
    Picoseconds reboot_delay_ = milliseconds(100.0);
    std::vector<ResetCallback> reset_callbacks_;
    check::InvariantRegistry invariants_;

    SteppingMode stepping_mode_ = default_stepping_mode();
    mutable PathDelayMemo memo_{fault_model_.timing()};
    // The settled ops' per-class certificates.  Every use compares its
    // key with the op's operating point, so none needs invalidating.
    std::array<OpCertificate, kAllInstrClasses.size()> certs_{};
    std::uint64_t generation_ = 1;
    Stretch stretch_;
    std::uint64_t batched_iterations_ = 0;
    std::uint64_t batch_windows_ = 0;
};

}  // namespace pv::sim
