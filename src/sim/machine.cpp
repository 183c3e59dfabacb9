#include "sim/machine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "check/assert.hpp"
#include "check/state_hasher.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace pv::sim {
namespace {

std::uint64_t storage_key(unsigned core_id, std::uint32_t addr) {
    return (static_cast<std::uint64_t>(core_id) << 32) | addr;
}

std::atomic<SteppingMode> g_default_stepping{SteppingMode::Batched};

// The delay-scale headroom of one settled-op certificate: the die heats
// by far less than this per op, so a certificate lasts many ops.  One
// built at scale s serves [s - step, s + step], so a cooling die also
// keeps a tight one.
constexpr double kCertScaleStep = 1e-6;

}  // namespace

void Machine::set_default_stepping_mode(SteppingMode m) {
    g_default_stepping.store(m, std::memory_order_relaxed);
}

SteppingMode Machine::default_stepping_mode() {
    return g_default_stepping.load(std::memory_order_relaxed);
}

namespace {
// The base rail is PCU-driven: short command latency, same slew class as
// the offset path.
RegulatorParams base_rail_params(const RegulatorParams& ocm) {
    return RegulatorParams{.write_latency = microseconds(5.0),
                           .slew_mv_per_us = ocm.slew_mv_per_us};
}
}  // namespace

Machine::Machine(CpuProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      vf_(profile_.vf_curve()),
      fault_model_(TimingModel{profile_.timing}, profile_.vf_curve()),
      regulator_(profile_.regulator),
      base_rail_(base_rail_params(profile_.regulator)),
      power_(profile_.power),
      thermal_(profile_.thermal),
      rng_(seed),
      shortest_period_ps_(profile_.freq_max.period_ps()),
      longest_period_ps_(profile_.freq_min.period_ps()) {
    if (profile_.core_count == 0) throw ConfigError("profile has zero cores");
    cores_.reserve(profile_.core_count);
    for (unsigned i = 0; i < profile_.core_count; ++i)
        cores_.emplace_back(i, profile_.freq_base);
    requested_freq_.assign(profile_.core_count, profile_.freq_base);
    base_rail_.force(VoltagePlane::Core, vf_.nominal(profile_.freq_base));
    // Sanity: the machine must boot into a safe state at every table
    // frequency, or the profile is miscalibrated.
    for (const Megahertz f : profile_.frequency_table()) {
        if (fault_model_.would_crash(f, vf_.nominal(f)))
            throw ConfigError("profile crashes at nominal voltage, f=" +
                              std::to_string(f.value()) + " MHz");
    }
    register_builtin_invariants();
}

void Machine::register_builtin_invariants() {
#if PV_CHECK_LEVEL >= 2
    invariants_.set_cadence(64);
#endif
    invariants_.add("core-frequency-in-range", [this](std::string& why) {
        for (const Core& c : cores_) {
            if (c.frequency() < profile_.freq_min || c.frequency() > profile_.freq_max) {
                why = "core " + std::to_string(c.id()) + " at " +
                      std::to_string(c.frequency().value()) + " MHz, table is [" +
                      std::to_string(profile_.freq_min.value()) + ", " +
                      std::to_string(profile_.freq_max.value()) + "]";
                return false;
            }
        }
        return true;
    });
    invariants_.add("requested-frequency-in-range", [this](std::string& why) {
        for (unsigned i = 0; i < requested_freq_.size(); ++i) {
            if (requested_freq_[i] < profile_.freq_min || requested_freq_[i] > profile_.freq_max) {
                why = "core " + std::to_string(i) + " requested " +
                      std::to_string(requested_freq_[i].value()) + " MHz outside the table";
                return false;
            }
        }
        return true;
    });
    invariants_.add("rail-physically-plausible", [this](std::string& why) {
        const double v = package_voltage().value();
        // The rail can sag deep under attack, but a value outside this
        // envelope (or NaN) is silent state corruption, not physics.
        if (!std::isfinite(v) || v < -1500.0 || v > 3000.0) {
            why = "package rail at " + std::to_string(v) + " mV";
            return false;
        }
        return true;
    });
    invariants_.add("mailbox-target-representable", [this](std::string& why) {
        // 11-bit two's complement in 1/1024 V units: about [-1000, +999] mV.
        for (std::size_t p = 0; p < mailbox_target_.size(); ++p) {
            const double mv = mailbox_target_[p].value();
            if (!std::isfinite(mv) || mv < -1000.5 || mv > 999.5) {
                why = "plane " + std::to_string(p) + " commanded " + std::to_string(mv) + " mV";
                return false;
            }
        }
        return true;
    });
}

Core& Machine::core(unsigned id) {
    if (id >= cores_.size()) throw ConfigError("core id out of range");
    touch();
    return cores_[id];
}

const Core& Machine::core(unsigned id) const {
    if (id >= cores_.size()) throw ConfigError("core id out of range");
    return cores_[id];
}

Megahertz Machine::snap_to_table(Megahertz f) const {
    const double step = profile_.freq_step.value();
    double snapped = std::round(f.value() / step) * step;
    snapped = std::clamp(snapped, profile_.freq_min.value(), profile_.freq_max.value());
    return Megahertz{snapped};
}

void Machine::set_core_frequency(unsigned id, Megahertz f) {
    Core& c = core(id);  // bounds check before touching requested_freq_; a write
    f = snap_to_table(f);
    requested_freq_[id] = f;
    // Lowering (or equal) is the safe direction: switch immediately, the
    // rail sags afterwards.  Raises wait for the rail (voltage-first).
    if (f <= c.frequency()) c.set_frequency(f);
    update_rail_target();
    maybe_crash();
}

void Machine::set_all_frequencies(Megahertz f) {
    touch();
    f = snap_to_table(f);
    for (auto& c : cores_) {
        requested_freq_[c.id()] = f;
        if (f <= c.frequency()) c.set_frequency(f);
    }
    update_rail_target();
    maybe_crash();
}

Megahertz Machine::requested_frequency(unsigned id) const {
    if (id >= requested_freq_.size()) throw ConfigError("core id out of range");
    return requested_freq_[id];
}

void Machine::update_rail_target() {
    touch();
    // C6 cores are power-gated and do not constrain the rail; C0 and C1
    // (merely clock-gated) do.
    Megahertz want = profile_.freq_min;
    for (const auto& c : cores_)
        if (c.cstate() != CState::C6)
            want = std::max(want, requested_freq_[c.id()]);
    const Millivolts target = vf_.nominal(want);
    if (base_rail_.target(VoltagePlane::Core) != target)
        base_rail_.write(VoltagePlane::Core, target, clock_);

    bool pending = false;
    for (const auto& c : cores_)
        if (requested_freq_[c.id()] > c.frequency()) pending = true;
    if (!pending) return;
    const Picoseconds ready = base_rail_.settle_time(VoltagePlane::Core);
    if (ready <= clock_) {
        apply_pending_raises();
    } else {
        events_.schedule(ready, [this] { apply_pending_raises(); });
    }
}

void Machine::apply_pending_raises() {
    touch();
    Megahertz want = profile_.freq_min;
    for (const auto& c : cores_)
        if (c.cstate() != CState::C6)
            want = std::max(want, requested_freq_[c.id()]);
    // The switch is gated on the TOTAL rail (base + OCM offset) reaching
    // the commanded operating voltage for the new P-state.  Gating on the
    // base alone would raise frequency while a deep offset is still
    // ramping out — a transition window real FIVR sequencing does not
    // have.  A stale completion event (target moved) just re-arms itself.
    const Millivolts target_total =
        vf_.nominal(want) + regulator_.target(VoltagePlane::Core);
    if (package_voltage() + Millivolts{0.01} < target_total) {
        const Picoseconds ready = rail_settle_time();
        if (ready > clock_) events_.schedule(ready, [this] { apply_pending_raises(); });
        return;
    }
    for (auto& c : cores_)
        if (c.cstate() != CState::C6 && requested_freq_[c.id()] > c.frequency())
            c.set_frequency(requested_freq_[c.id()]);
    maybe_crash();
}

void Machine::enter_cstate(unsigned id, CState state) {
    Core& c = core(id);  // a write
    if (state == CState::C0) {
        wake_core(id);
        return;
    }
    c.set_cstate(state);
    // Dropping a constraint may let the rail sag (power saving).
    update_rail_target();
}

void Machine::wake_core(unsigned id) {
    Core& c = core(id);  // a write
    if (c.cstate() == CState::C0) return;
    const Picoseconds latency = c.cstate() == CState::C6
                                    ? profile_.cstates.c6_exit_latency
                                    : profile_.cstates.c1_exit_latency;
    c.add_steal(latency);
    c.set_cstate(CState::C0);
    // The rail may have sagged while this core slept: come up at the
    // fastest P-state the rail supports right now; the original request
    // re-arms a voltage-first raise for the rest.
    const Megahertz supported = vf_.max_supported(
        base_rail_.offset_at(VoltagePlane::Core, clock_));
    c.set_frequency(snap_to_table(std::min(requested_freq_[id], supported)));
    update_rail_target();
    maybe_crash();
}

Picoseconds Machine::rail_settle_time() const {
    // Pending frequency raises switch exactly when the base rail settles,
    // so the max over the base rail and every fault-relevant offset
    // plane covers them.
    return std::max({base_rail_.settle_time(VoltagePlane::Core),
                     regulator_.settle_time(VoltagePlane::Core),
                     regulator_.settle_time(VoltagePlane::Cache)});
}

Megahertz Machine::max_active_frequency() const {
    Megahertz best = profile_.freq_min;  // also the answer with no core active
    for (const auto& c : cores_)
        if (c.power_state() == PowerState::Active) best = std::max(best, c.frequency());
    return best;
}

Millivolts Machine::package_voltage() const { return voltage_at(clock_); }

Millivolts Machine::plane_voltage(VoltagePlane plane) const {
    return base_rail_.offset_at(VoltagePlane::Core, clock_) +
           regulator_.offset_at(plane, clock_);
}

Millivolts Machine::voltage_at(Picoseconds t) const {
    return base_rail_.offset_at(VoltagePlane::Core, t) +
           regulator_.offset_at(VoltagePlane::Core, t);
}

double Machine::leakage_scale() const {
    unsigned leaking = 0;
    for (const auto& c : cores_)
        if (c.cstate() != CState::C6) ++leaking;
    const double core_share = profile_.cstates.core_leak_share;
    return (1.0 - core_share) +
           core_share * static_cast<double>(leaking) / static_cast<double>(cores_.size());
}

void Machine::integrate_power_to(Picoseconds t, Millivolts v_from, Millivolts v_to) {
    // Linear interpolation between the endpoint voltages; ramp kinks
    // inside the window introduce a negligible quadratic-term error.
    power_.integrate_leakage(clock_, t, v_from, v_to, leakage_scale());
    heat_die_to(t);
}

void Machine::heat_die_to(Picoseconds t) {
    // Feed the thermal RC model with the window's average power (dynamic
    // energy from retires since the last update is included).
    const double dt_s = (t - clock_).seconds();
    if (dt_s > 0.0) {
        const double avg_w = (power_.total_joules() - energy_at_thermal_update_) / dt_s;
        thermal_.update(t, avg_w);
        energy_at_thermal_update_ = power_.total_joules();
    }
}

Millivolts Machine::applied_offset(VoltagePlane plane) const {
    return regulator_.offset_at(plane, clock_);
}

double Machine::memo_fault_probability(Megahertz f, Millivolts v, InstrClass c,
                                       double scale) const {
    return fault_model_.fault_probability_at(fault_model_.timing().slack_ps(f), memo_.get(v), c,
                                             scale);
}

void Machine::maybe_crash() {
    if (crashed_) return;
    const Megahertz f = max_active_frequency();
    const Millivolts base = base_rail_.offset_at(VoltagePlane::Core, clock_);
    const Millivolts v_core = base + regulator_.offset_at(VoltagePlane::Core, clock_);
    const Millivolts v_cache = base + regulator_.offset_at(VoltagePlane::Cache, clock_);
    crash_if_violated(f, fault_model_.timing().slack_ps(f), {v_core, memo_.get(v_core)},
                      {v_cache, memo_.get(v_cache)});
}

void Machine::crash_if_violated(Megahertz f, double slack_ps, PlanePoint core,
                                PlanePoint cache) {
    const double scale = thermal_.delay_scale();
    if (fault_model_.would_crash_at(slack_ps, core.delay_ps, scale)) {
        crash("undervolt crash: control-path timing violated at " +
              std::to_string(f.value()) + " MHz / " + std::to_string(core.v.value()) +
              " mV (core plane)");
        return;
    }
    // The cache plane feeds the (shorter) load path; kernel data accesses
    // corrupt and panic once it deterministically violates timing.
    if (fault_model_.would_crash_at(slack_ps, cache.delay_ps,
                                    scale * path_factor(InstrClass::Load))) {
        crash("undervolt crash: cache-path timing violated at " +
              std::to_string(f.value()) + " MHz / " + std::to_string(cache.v.value()) +
              " mV (cache plane)");
    }
}

void Machine::advance_to(Picoseconds t) {
    if (t < clock_) throw SimError("advance_to into the past");
    if (crashed_) return;
    while (!events_.empty() && events_.next_time() <= t) {
        const Picoseconds et = events_.next_time();
        integrate_power_to(et, voltage_at(clock_), voltage_at(et));
        clock_ = et;
        // The rail ramps monotonically between events, so its extreme
        // value inside (prev, et] is reached at et: check before and
        // after dispatching the events at et.
        maybe_crash();
        if (crashed_) return;
        touch();
        events_.run_until(et);
        touch();
        maybe_crash();
        if (crashed_) return;
        invariants_.tick();
    }
    integrate_power_to(t, voltage_at(clock_), voltage_at(t));
    clock_ = t;
    maybe_crash();
    invariants_.tick();
}

std::uint64_t Machine::read_msr(unsigned core_id, std::uint32_t addr) const {
    const Core& c = core(core_id);
    switch (addr) {
        case kMsrPerfStatus: {
            const auto ratio =
                static_cast<std::uint64_t>(std::llround(c.frequency().value() / 100.0)) & 0xFF;
            const double volts = package_voltage().volts();
            const auto vid =
                static_cast<std::uint64_t>(std::llround(volts * 8192.0)) & 0xFFFF;
            return (vid << 32) | (ratio << 8);
        }
        case kMsrOcMailbox: {
            // Read-back reports the DEEPEST MAILBOX-commanded offset
            // across the fault-relevant planes with its plane id (the
            // OCM per-plane read loop collapsed to its observable
            // effect).  Deliberately NOT the live regulator target: a
            // hardware SVID interposer (VoltPillager) moves the rail
            // without leaving any mailbox trace.
            const Millivolts core_t =
                mailbox_target_[static_cast<std::size_t>(VoltagePlane::Core)];
            const Millivolts cache_t =
                mailbox_target_[static_cast<std::size_t>(VoltagePlane::Cache)];
            return cache_t < core_t ? encode_offset(cache_t, VoltagePlane::Cache)
                                    : encode_offset(core_t, VoltagePlane::Core);
        }
        case kMsrPerfCtl: {
            const auto ratio =
                static_cast<std::uint64_t>(std::llround(requested_freq_[core_id].value() / 100.0)) &
                0xFF;
            return ratio << 8;
        }
        case kMsrVoltageOffsetLimit: {
            const auto it = msr_storage_.find(storage_key(0, addr));  // package scope
            return it == msr_storage_.end() ? 0 : it->second;
        }
        case kMsrRaplPowerUnit:
            return PowerModel::rapl_power_unit();
        case kMsrPkgEnergyStatus:
            return power_.rapl_energy_status();
        case kMsrThermStatus:
            return thermal_.therm_status_msr();
        case kMsrTemperatureTarget:
            return thermal_.temperature_target_msr();
        default: {
            const auto it = msr_storage_.find(storage_key(core_id, addr));
            return it == msr_storage_.end() ? 0 : it->second;
        }
    }
}

bool Machine::write_msr(unsigned core_id, std::uint32_t addr, std::uint64_t value) {
    if (crashed_) return false;
    (void)core(core_id);  // bounds check; a write
    for (auto& [token, hook] : write_hooks_) {
        (void)token;
        if (hook(core_id, addr, value) == MsrWriteAction::Ignore) return false;
    }
    apply_msr_semantics(core_id, addr, value);
    return true;
}

void Machine::apply_msr_semantics(unsigned core_id, std::uint32_t addr, std::uint64_t value) {
    switch (addr) {
        case kMsrOcMailbox: {
            const auto req = decode_offset(value);
            if (req && req->command && req->write_enable) {
                regulator_.write(req->plane, req->offset, clock_);
                mailbox_target_[static_cast<std::size_t>(req->plane)] = req->offset;
                last_ocm_write_ = clock_;
                PV_TRACE_EVENT(trace::EventKind::OcmTransaction, "ocm-write",
                               clock_.value(), value,
                               static_cast<std::uint64_t>(req->plane));
            }
            break;
        }
        case kMsrPerfCtl: {
            const auto ratio = (value >> 8) & 0xFF;
            set_core_frequency(core_id, Megahertz{static_cast<double>(ratio) * 100.0});
            break;
        }
        case kMsrVoltageOffsetLimit:
            msr_storage_[storage_key(0, addr)] = value;  // package scope
            break;
        default:
            msr_storage_[storage_key(core_id, addr)] = value;
            break;
    }
}

std::size_t Machine::add_write_hook(WriteHook hook) {
    const std::size_t token = next_hook_token_++;
    write_hooks_.emplace_back(token, std::move(hook));
    return token;
}

void Machine::remove_write_hook(std::size_t token) {
    std::erase_if(write_hooks_, [token](const auto& p) { return p.first == token; });
}

double Machine::fault_probability(unsigned core_id, InstrClass c) const {
    // Loads traverse the cache SRAM: they fault with the CACHE plane's
    // rail; every other class with the core plane's.
    const VoltagePlane plane =
        c == InstrClass::Load ? VoltagePlane::Cache : VoltagePlane::Core;
    return memo_fault_probability(core(core_id).frequency(), plane_voltage(plane), c,
                                  thermal_.delay_scale());
}

void Machine::retire_window(Core& cr, InstrClass c, std::uint64_t ops, Millivolts v,
                            BatchResult& r) {
    const double p = memo_fault_probability(cr.frequency(), v, c, thermal_.delay_scale());
    const std::uint64_t faults = fault_model_.sample_fault_count(rng_, ops, p);
    if (faults > 0)
        PV_TRACE_EVENT(trace::EventKind::FaultInjected, "batch-fault", clock_.value(),
                       faults, static_cast<std::uint64_t>(c));
    r.faults += faults;
    power_.on_retire(ops, v);
    cr.retire(ops);
    r.ops_done += ops;
}

void Machine::validate_window(const Core& cr, InstrClass c, VoltagePlane plane,
                              Millivolts v_anchor, Picoseconds window) const {
    // Sliced-mode soundness check: walk the window at the legacy 50 us
    // granularity with READ-ONLY queries (the clock does not move) and
    // require every assumption the closed-form step rests on.  All three
    // checks are exact, not tolerance-based: settled rails return their
    // target bit-identically, and the probability check doubles as a
    // PathDelayMemo oracle (memoized anchor vs. direct evaluation).
    if (!events_.empty() && events_.next_time() < clock_ + window)
        throw SimError("batched window crosses an event boundary");
    const double scale = thermal_.delay_scale();
    const double p_anchor = memo_fault_probability(cr.frequency(), v_anchor, c, scale);
    const Picoseconds step = microseconds(50.0);
    for (Picoseconds t = clock_ + step; t < clock_ + window; t = t + step) {
        const Millivolts v_t = base_rail_.offset_at(VoltagePlane::Core, t) +
                               regulator_.offset_at(plane, t);
        if (v_t.value() != v_anchor.value())
            throw SimError("batched window rail voltage drifted from its anchor");
        const double p_t = fault_model_.fault_probability(cr.frequency(), v_t, c, scale);
        if (p_t != p_anchor)
            throw SimError("batched window fault probability drifted from its anchor");
    }
}

void Machine::check_work(double cpi, std::uint64_t n_ops) const {
    if (!(cpi > 0.0 && std::isfinite(cpi))) throw ConfigError("cpi must be positive and finite");
    // The slowest op bounds every op duration and window the work
    // computes, so their int64 casts and the clock stay in range.
    const double slowest_ps = cpi * longest_period_ps_;
    if (!(static_cast<double>(clock_.value()) + static_cast<double>(n_ops) * slowest_ps < 0x1p62))
        throw ConfigError("cpi or op count overflows the simulated clock");
}

BatchResult Machine::run_batch(unsigned core_id, InstrClass c, std::uint64_t n_ops, double cpi) {
    check_work(cpi, n_ops);
    // A window converts to at most n_ops + 1/(fastest op) ops: the
    // uint64 casts of the op counts stay in range.
    const double n = static_cast<double>(n_ops);
    if (!(n < 0x1p62 && cpi * shortest_period_ps_ * (0x1p62 - n) > 1.0))
        throw ConfigError("cpi too small for run_batch's op counts");
    Core& cr = core(core_id);
    BatchResult r;
    r.started = clock_;
    if (crashed_) {
        r.crashed = true;
        r.finished = clock_;
        return r;
    }
    if (cr.cstate() != CState::C0) wake_core(core_id);

    const VoltagePlane plane =
        c == InstrClass::Load ? VoltagePlane::Cache : VoltagePlane::Core;
    std::uint64_t remaining = n_ops;
    while (remaining > 0 && !crashed_) {
        // Kernel threads that fired during previous windows stole time.
        const Picoseconds steal = cr.drain_steal(Picoseconds{INT64_MAX});
        if (steal > Picoseconds{0}) {
            advance(steal);
            continue;
        }
        if (!events_.empty() && events_.next_time() <= clock_) {
            advance_to(events_.next_time());  // fire due events first
            continue;
        }

        const double op_ps = cpi * cr.frequency().period_ps();
        const auto need = Picoseconds{
            static_cast<std::int64_t>(std::ceil(static_cast<double>(remaining) * op_ps))};

        if (clock_ < rail_settle_time()) {
            // A rail is ramping: sample it finely, exactly as before the
            // batched rebuild — 1 us slices, midpoint-evaluated voltage.
            Picoseconds slice = std::min(microseconds(1.0), need);
            if (!events_.empty()) slice = std::min(slice, events_.next_time() - clock_);
            auto ops = static_cast<std::uint64_t>(static_cast<double>(slice.value()) / op_ps);
            ops = std::min(ops, remaining);
            if (ops == 0) {
                ops = 1;
                slice = Picoseconds{static_cast<std::int64_t>(std::ceil(op_ps))};
            }
            const Picoseconds mid = clock_ + Picoseconds{slice.value() / 2};
            const Millivolts v_mid = base_rail_.offset_at(VoltagePlane::Core, mid) +
                                     regulator_.offset_at(plane, mid);
            retire_window(cr, c, ops, v_mid, r);
            remaining -= ops;
            advance(slice);
            continue;
        }

        // Rails settled, no due event: the rail is constant until the
        // next event boundary, so the whole stretch collapses into ONE
        // closed-form window — one probability evaluation, one binomial
        // draw, one power/thermal update, one clock advance.
        Picoseconds window = need;
        if (!events_.empty()) window = std::min(window, events_.next_time() - clock_);
        auto ops = static_cast<std::uint64_t>(static_cast<double>(window.value()) / op_ps);
        ops = std::min(ops, remaining);
        bool straddle = false;
        if (ops == 0) {
            // One op straddles the event boundary: it retires whole and
            // overshoots the boundary by less than one op period.
            ops = 1;
            window = Picoseconds{static_cast<std::int64_t>(std::ceil(op_ps))};
            straddle = true;
        }
        const Millivolts v = base_rail_.offset_at(VoltagePlane::Core, clock_) +
                             regulator_.offset_at(plane, clock_);
        if (stepping_mode_ == SteppingMode::Sliced && !straddle)
            validate_window(cr, c, plane, v, window);
        retire_window(cr, c, ops, v, r);
        remaining -= ops;
        batched_iterations_ += ops;
        ++batch_windows_;
        advance(window);
    }
    r.crashed = crashed_;
    r.finished = clock_;
    return r;
}

OpRunResult Machine::execute_ops(unsigned core_id, std::span<const InstrClass> ops,
                                 double cpi) {
    check_work(cpi, ops.size());
    OpRunResult r;
    if (crashed_) return r;
    if (core_id >= cores_.size()) throw ConfigError("core id out of range");
    Core& cr = cores_[core_id];  // not core(): the op path is no write
    while (r.ops_done < ops.size() && !r.faulted && !crashed_) {
        if (stretch_current(core_id, cpi)) {
            // Nothing a settled op reads has changed since the stretch
            // began: the core is awake with no stolen time, the rails are
            // settled.
            if (stepping_mode_ == SteppingMode::Sliced)
                check_stretch(cr);
            else if (serve_stretch(cr, ops.subspan(r.ops_done), r))
                continue;
        }
        // One op on the general path, after wake-up and stolen time.  A
        // settled op starts a stretch, which serves it on Batched machines.
        if (cr.cstate() != CState::C0) wake_core(core_id);
        const Picoseconds steal = cr.drain_steal(Picoseconds{INT64_MAX});
        if (steal > Picoseconds{0}) advance(steal);
        if (crashed_) {
            ++r.ops_done;
            break;
        }
        const Picoseconds end = clock_ + op_duration(cr, cpi);
        // An event inside advance(steal) may have stolen more time (a
        // kthread pinned to this core): the next op must drain it, so no
        // stretch.
        if (clock_ >= rail_settle_time() && (events_.empty() || events_.next_time() > end) &&
            cr.cstate() == CState::C0 && cr.pending_steal() == Picoseconds{0}) {
            record_stretch(cr, core_id, cpi, end - clock_);
            if (stepping_mode_ == SteppingMode::Batched &&
                serve_stretch(cr, ops.subspan(r.ops_done), r))
                continue;
        }
        r.faulted = general_op(cr, ops[r.ops_done++], end);
        cr.retire(1);
    }
    r.faulted = r.faulted && !crashed_;
    return r;
}

Picoseconds Machine::op_duration(const Core& cr, double cpi) {
    return Picoseconds{static_cast<std::int64_t>(std::ceil(cpi * cr.frequency().period_ps()))};
}

Machine::OperatingPoint Machine::operating_point(const Core& cr) const {
    OperatingPoint op;
    const Millivolts base = base_rail_.offset_at(VoltagePlane::Core, clock_);
    op.v_core = base + regulator_.offset_at(VoltagePlane::Core, clock_);
    op.v_cache = base + regulator_.offset_at(VoltagePlane::Cache, clock_);
    // One pass for max_active_frequency() and the leaking-core count.
    op.f_max = profile_.freq_min;
    for (const Core& k : cores_) {
        if (k.power_state() == PowerState::Active) op.f_max = std::max(op.f_max, k.frequency());
        if (k.cstate() != CState::C6) ++op.leaking;
    }
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    op.key = {bits(op.v_core.value()), bits(op.v_cache.value()), bits(cr.frequency().value()),
              bits(op.f_max.value())};
    return op;
}

void Machine::record_stretch(const Core& cr, unsigned core_id, double cpi, Picoseconds dt) {
    const OperatingPoint point = operating_point(cr);
    stretch_ = {.generation = generation_,
                .core = core_id,
                .cpi = cpi,
                .dt = dt,
                .point = point,
                .dt_s = dt.seconds(),
                .decay = thermal_.decay(dt.milliseconds()),
                .retire_joules = power_.retire_joules(1, point.v_core),
                .leak_joules = power_.leakage_over(clock_, clock_ + dt, point.v_core, point.v_core,
                                                   leakage_scale())};
}

void Machine::check_stretch(const Core& cr) const {
    // Sliced-mode soundness check, read-only like validate_window: a
    // stretch the generation calls current must be what the op path
    // would derive from live state right now.
    if (cr.cstate() != CState::C0 || cr.pending_steal() != Picoseconds{0} ||
        clock_ < rail_settle_time() || op_duration(cr, stretch_.cpi) != stretch_.dt ||
        operating_point(cr) != stretch_.point)
        throw SimError("settled-op stretch outlived a change to the machine state");
}

bool Machine::draw_fault(InstrClass c, double p) { return fault_drawn(c, rng_.uniform(), p); }

bool Machine::fault_drawn(InstrClass c, double u, double p) {
    const bool faulted = u < p;
    if (faulted)
        PV_TRACE_EVENT(trace::EventKind::FaultInjected, "op-fault", clock_.value(), 1,
                       static_cast<std::uint64_t>(c));
    return faulted;
}

bool Machine::general_op(const Core& cr, InstrClass c, Picoseconds end) {
    // The core-plane voltage feeds both the fault draw and the energy.
    const Millivolts v_core = package_voltage();
    const Millivolts v = c == InstrClass::Load ? plane_voltage(VoltagePlane::Cache) : v_core;
    const bool faulted =
        draw_fault(c, memo_fault_probability(cr.frequency(), v, c, thermal_.delay_scale()));
    power_.on_retire(1, v_core);
    advance_to(end);
    return faulted;
}

Machine::OpCertificate Machine::certify(InstrClass c, const CertificateKey& key,
                                        Millivolts v_core, Millivolts v_cache, Megahertz f_op,
                                        Megahertz f_max, double scale) const {
    const TimingModel& timing = fault_model_.timing();
    OpCertificate k{.key = key,
                    .scale_hi = scale + kCertScaleStep,
                    .delay_core = memo_.get(v_core),
                    .delay_cache = memo_.get(v_cache),
                    .slack_op = timing.slack_ps(f_op),
                    .slack_max = timing.slack_ps(f_max)};
    k.scale_lo = k.scale_hi - 2 * kCertScaleStep;
    // Short of the slack (the class delay in fault_probability_at's
    // association), the z-score is monotone in the scale under rounding;
    // the margin covers erfc's few-ulp error, the floor its subnormal tail.
    const double d_op = c == InstrClass::Load ? k.delay_cache : k.delay_core;
    if (k.scale_hi * (path_factor(c) * d_op) < k.slack_op)
        k.skip_below = std::max(
            fault_model_.fault_probability_at(k.slack_op, d_op, c, k.scale_hi) * (1.0 + 1e-9),
            std::numeric_limits<double>::min());
    // Exact: each crash operand is a product of rounded multiplications,
    // monotone in the scale.
    k.crash_free =
        !fault_model_.would_crash_at(k.slack_max, k.delay_core, k.scale_hi) &&
        !fault_model_.would_crash_at(k.slack_max, k.delay_cache,
                                     k.scale_hi * path_factor(InstrClass::Load));
    return k;
}

bool Machine::serve_stretch(Core& cr, std::span<const InstrClass> ops, OpRunResult& r) {
    // Settled rails hold every plane at its target, and no event falls
    // before the last op's end, so each op is advance_to(end) with the
    // stretch's voltages and its physics decided by the class's
    // certificate: general_op's draws and updates in the same order,
    // bit-identical (DESIGN 5f).  The state an op moves lives in locals;
    // store() writes it back before every step that leaves the loop's
    // arithmetic.
    const std::int64_t dt = stretch_.dt.value();
    std::size_t n = ops.size();
    if (!events_.empty()) {
        // Op k (from 1) ends at clock + k dt: before the event while
        // k dt < room.  check_work bounds n dt below 2^62 + n.
        const std::int64_t room = (events_.next_time() - clock_).value();
        if (room <= static_cast<std::int64_t>(n) * dt)
            n = room > 0 ? static_cast<std::size_t>((room - 1) / dt) : 0;
    }
    if (n == 0 || thermal_.last_update() != clock_) return false;

    const auto& [v_core, v_cache, f_max, leaking, key] = stretch_.point;
    const double dt_s = stretch_.dt_s;
    const double decay = stretch_.decay;
    const double retire_joules = stretch_.retire_joules;
    const double leak_joules = stretch_.leak_joules;
    std::int64_t clock = clock_.value();
    double dynamic_j = power_.dynamic_joules();
    double leakage_j = power_.leakage_joules();
    double thermal_j = energy_at_thermal_update_;
    double temp_c = thermal_.temperature_c();
    Rng::Words rng = rng_.words();
    std::uint64_t unstored = 0;  // ops whose tick and retire are not stored yet
    std::uint64_t quiet = invariants_.quiet_ticks();  // as of the last store
    const auto store = [&] {
        clock_ = Picoseconds{clock};
        power_.set_joules(dynamic_j, leakage_j);
        energy_at_thermal_update_ = thermal_j;
        thermal_.set_state(clock_, temp_c);
        rng_.set_words(rng);
        invariants_.skip_ticks(unstored);
        cr.retire(unstored);
        unstored = 0;
        quiet = invariants_.quiet_ticks();
    };
    // Bit c: certs_[c] is known to be keyed on this stretch's point.  Only
    // a rebuild below changes a certificate, and it keys it so.
    unsigned keyed = 0;

    std::size_t done = 0;
    bool faulted = false;
    double scale = thermal_.delay_scale_at(temp_c);
    while (done < n && !faulted) {
        const InstrClass c = ops[done++];
        const auto ci = static_cast<std::size_t>(c);
        OpCertificate& cert = certs_[ci];
        if ((!(keyed >> ci & 1u) && cert.key != key) ||
            !(scale <= cert.scale_hi && scale >= cert.scale_lo)) {
            store();
            cert = certify(c, key, v_core, v_cache, cr.frequency(), f_max, scale);
        }
        keyed |= 1u << ci;
        const double u = Rng::unit(Rng::step(rng));
        if (u < cert.skip_below) {
            store();
            const double d_op = c == InstrClass::Load ? cert.delay_cache : cert.delay_core;
            faulted = fault_drawn(c, u,
                                  fault_model_.fault_probability_at(cert.slack_op, d_op, c, scale));
        }
        // on_retire, the leakage over [clock, clock + dt] and heat_die_to.
        dynamic_j += retire_joules;
        leakage_j += leak_joules;
        const double total_j = dynamic_j + leakage_j;
        temp_c = thermal_.relaxed(temp_c, (total_j - thermal_j) / dt_s, decay);
        thermal_j = total_j;
        clock += dt;
        scale = thermal_.delay_scale_at(temp_c);  // the next op's, too
        const bool check_crash = !cert.crash_free || scale > cert.scale_hi;
        if (check_crash || unstored == quiet) {  // or this op's tick evaluates
            store();
            if (check_crash)
                crash_if_violated(f_max, cert.slack_max, {v_core, cert.delay_core},
                                  {v_cache, cert.delay_cache});
            invariants_.tick();
            cr.retire(1);
            if (crashed_) break;
            quiet = invariants_.quiet_ticks();
        } else {
            ++unstored;
        }
    }
    store();
    r.ops_done += done;
    r.faulted = faulted;
    return true;
}

ImulResult Machine::faulty_imul(unsigned core_id, std::uint64_t a, std::uint64_t b) {
    ImulResult r;
    r.value = a * b;  // wrapping 64-bit product, as the x86 imul r64 low half
    r.faulted = execute_op(core_id, InstrClass::Imul, /*cpi=*/1.0);
    if (r.faulted) r.value = fault_model_.corrupt_value(rng_, r.value);
    return r;
}

std::uint64_t Machine::corrupt_value(std::uint64_t correct) {
    return fault_model_.corrupt_value(rng_, correct);
}

void Machine::add_steal(unsigned core_id, Cycles cycles) {
    Core& cr = core(core_id);  // a write
    cr.add_steal(cycles.at(cr.frequency()));
}

void Machine::crash(std::string reason) {
    touch();
    if (crashed_) return;
    crashed_ = true;
    crash_reason_ = std::move(reason);
    crash_time_ = clock_;
    PV_TRACE_EVENT(trace::EventKind::Instant, "crash", clock_.value(),
                   static_cast<std::uint64_t>(boot_count_), 0);
}

void Machine::restore_boot_state() {
    touch();
    crashed_ = false;
    crash_reason_.clear();
    events_.clear();
    regulator_.reset();
    base_rail_.reset();
    base_rail_.force(VoltagePlane::Core, vf_.nominal(profile_.freq_base));
    msr_storage_.clear();
    mailbox_target_ = {};
    last_ocm_write_ = Picoseconds{};
    requested_freq_.assign(profile_.core_count, profile_.freq_base);
    for (auto& c : cores_) c.reset(profile_.freq_base);
    power_.reset();  // RAPL counters clear at boot
    thermal_.reset();
    energy_at_thermal_update_ = 0.0;
}

void Machine::reboot() {
    restore_boot_state();
    clock_ += reboot_delay_;
    ++boot_count_;
    PV_TRACE_EVENT(trace::EventKind::Instant, "reboot", clock_.value(),
                   static_cast<std::uint64_t>(boot_count_), 0);
    for (const auto& cb : reset_callbacks_) cb();
}

std::uint64_t Machine::state_hash() const {
    check::StateHasher h;
    h.mix(profile_.name);
    h.mix(clock_.value());
    h.mix(static_cast<std::uint64_t>(boot_count_));
    h.mix(crashed_);
    h.mix(crash_time_.value());
    h.mix(crash_reason_);
    for (const Core& c : cores_) {
        h.mix(c.frequency().value());
        h.mix(static_cast<std::uint64_t>(c.cstate()));
        h.mix(c.instructions_retired());
        h.mix(c.pending_steal().value());
        h.mix(c.total_steal().value());
    }
    for (const Megahertz f : requested_freq_) h.mix(f.value());
    for (std::size_t p = 0; p < mailbox_target_.size(); ++p) {
        const auto plane = static_cast<VoltagePlane>(p);
        h.mix(mailbox_target_[p].value());
        h.mix(regulator_.target(plane).value());
        h.mix(regulator_.offset_at(plane, clock_).value());
    }
    h.mix(base_rail_.offset_at(VoltagePlane::Core, clock_).value());
    // FlatMap iterates in key order: already canonical, no sort needed.
    h.mix(static_cast<std::uint64_t>(msr_storage_.size()));
    for (const auto& [key, value] : msr_storage_) {
        h.mix(key);
        h.mix(value);
    }
    h.mix(power_.dynamic_joules());
    h.mix(power_.leakage_joules());
    h.mix(thermal_.temperature_c());
    h.mix(rng_.state_fingerprint());
    return h.digest();
}

void Machine::reset(std::uint64_t seed) {
    restore_boot_state();
    events_.rewind();   // the clock restarts from zero below
    events_.reset_stats();
    batched_iterations_ = 0;
    batch_windows_ = 0;
    thermal_.rewind();
    clock_ = Picoseconds{};
    crash_time_ = Picoseconds{};
    boot_count_ = 1;
    rng_ = Rng(seed);
    for (const auto& cb : reset_callbacks_) cb();
}

Machine::Snapshot Machine::capture_snapshot() const {
    return Snapshot{
        .owner = this,
        .clock = clock_,
        .crashed = crashed_,
        .crash_reason = crash_reason_,
        .crash_time = crash_time_,
        .boot_count = boot_count_,
        .cores = cores_,
        .requested_freq = requested_freq_,
        .regulator = regulator_,
        .base_rail = base_rail_,
        .power = power_,
        .thermal = thermal_,
        .energy_at_thermal_update = energy_at_thermal_update_,
        .events = events_,
        .msr_storage = msr_storage_,
        .mailbox_target = mailbox_target_,
        .last_ocm_write = last_ocm_write_,
        .batched_iterations = batched_iterations_,
        .batch_windows = batch_windows_,
    };
}

void Machine::restore_snapshot(const Snapshot& snap, std::uint64_t seed) {
    if (snap.owner != this)
        throw SimError("snapshot restored onto a different machine");
    touch();
    clock_ = snap.clock;
    crashed_ = snap.crashed;
    crash_reason_ = snap.crash_reason;
    crash_time_ = snap.crash_time;
    boot_count_ = snap.boot_count;
    cores_ = snap.cores;
    requested_freq_ = snap.requested_freq;
    regulator_ = snap.regulator;
    base_rail_ = snap.base_rail;
    power_ = snap.power;
    thermal_ = snap.thermal;
    energy_at_thermal_update_ = snap.energy_at_thermal_update;
    events_ = snap.events;
    msr_storage_ = snap.msr_storage;
    mailbox_target_ = snap.mailbox_target;
    last_ocm_write_ = snap.last_ocm_write;
    batched_iterations_ = snap.batched_iterations;
    batch_windows_ = snap.batch_windows;
    rng_ = Rng(seed);
}

Machine::Stats Machine::stats() const {
    const EventQueue::Stats& es = events_.stats();
    return Stats{.events_dispatched = es.dispatched,
                 .batched_iterations = batched_iterations_,
                 .batch_windows = batch_windows_,
                 .heap_peak = es.heap_peak};
}

}  // namespace pv::sim
