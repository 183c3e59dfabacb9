#include "infer/adaptive_planner.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "check/assert.hpp"
#include "plugvolt/row_search.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace pv::infer {
namespace {

using plugvolt::AcquisitionConfig;
using plugvolt::AdaptiveContext;
using plugvolt::CellProbeFn;
using plugvolt::PlannedRow;

/// Effective step encodings for interpolation: both boundaries live on
/// {1 .. steps + 1} with "outside the sweep" mapped to steps + 1, and an
/// unset onset mapped to the crash step (the engine emits onset == crash
/// for such rows) — monotone non-increasing along the row axis, which is
/// what the interpolation certificate rests on.
[[nodiscard]] std::uint64_t eff_crash(const PlannedRow& row) { return row.crash_step; }

[[nodiscard]] std::uint64_t eff_onset(const PlannedRow& row, std::uint64_t steps) {
    if (row.onset_step != 0) return row.onset_step;
    return row.crash_step <= steps ? row.crash_step : steps + 1;
}

[[nodiscard]] std::uint64_t gap(std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
}

/// Interpolated value for row r between anchors (lo, va) and (hi, vb)
/// with gap(va, vb) <= 2.  For a gap of exactly 2 every intermediate row
/// takes the middle value: any monotone truth between the anchors is
/// then within 1 step, which a rounded linear blend does NOT guarantee
/// near the endpoints.  Smaller gaps interpolate linearly (clamped), and
/// the certificate is immediate.
[[nodiscard]] std::uint64_t interpolate(std::uint64_t va, std::uint64_t vb,
                                        std::size_t lo, std::size_t hi, std::size_t r) {
    const std::uint64_t vmin = std::min(va, vb);
    const std::uint64_t vmax = std::max(va, vb);
    if (vmax - vmin == 2) return vmin + 1;
    const double t = static_cast<double>(r - lo) / static_cast<double>(hi - lo);
    const auto blended = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(va) + (static_cast<double>(vb) - static_cast<double>(va)) * t));
    return std::clamp(blended, vmin, vmax);
}

/// One plan invocation's worth of state.
class Planner {
public:
    Planner(const AdaptiveContext& ctx, const CellProbeFn& probe,
            const AcquisitionConfig& acq)
        : ctx_(ctx),
          probe_(probe),
          search_(ctx.steps, ctx.refine_window, acq),
          rows_(ctx.rows) {}

    [[nodiscard]] std::vector<PlannedRow> run() {
        PV_ASSERT(ctx_.rows > 0 && ctx_.steps >= 1,
                  "adaptive planning needs rows and at least one offset step");
        PV_ASSERT(ctx_.adopted.size() == ctx_.rows,
                  "adopted-row vector does not match the table");
        anchor(0);
        if (ctx_.rows > 1) {
            anchor(ctx_.rows - 1);
            refine(0, ctx_.rows - 1);
        }
        std::vector<PlannedRow> out(ctx_.rows);
        for (std::size_t r = 0; r < ctx_.rows; ++r) {
            PV_ASSERT(rows_[r].has_value(), "planner left row " << r << " unplanned");
            out[r] = *rows_[r];
        }
        return out;
    }

private:
    /// Certify row r as an anchor: adopt a resumed anchor's values, or
    /// solve both boundaries by direct probing.
    void anchor(std::size_t r) {
        if (rows_[r].has_value() && rows_[r]->anchored) return;
        if (ctx_.adopted[r].has_value() && ctx_.adopted[r]->anchored) {
            rows_[r] = *ctx_.adopted[r];
            return;
        }
        rows_[r] = solve(r);
    }

    /// Anchor row r with the row search.  A lot-neighbour hint is the
    /// prior where it has a boundary; otherwise the interpolation between
    /// the nearest certified anchors is.
    [[nodiscard]] PlannedRow solve(std::size_t r) {
        plugvolt::RowWarmStart prior;
        if (ctx_.warm_start) {
            if (const auto hint = ctx_.warm_start(r)) prior = *hint;
        }
        if (prior.crash_step == 0) prior.crash_step = predict(r, Axis::Crash).value_or(0);
        if (prior.onset_step == 0) prior.onset_step = predict(r, Axis::Onset).value_or(0);
        return search_.solve(
            ctx_.seed, r, prior, [this, r](std::uint64_t s) { return probe_(r, s); },
            [this, r](std::uint64_t lo, std::uint64_t hi) { note_update(r, lo, hi); });
    }

    /// Recursive row-axis subdivision: compatible anchor pairs enclose
    /// their span at zero probes, incompatible pairs anchor the midpoint.
    /// Depends only on row indices and certified anchor VALUES — the
    /// resume bit-identity contract.
    void refine(std::size_t lo, std::size_t hi) {
        if (hi - lo <= 1) return;
        const PlannedRow a = *rows_[lo];
        const PlannedRow b = *rows_[hi];
        const std::uint64_t steps = ctx_.steps;
        if (gap(eff_crash(a), eff_crash(b)) <= 2 &&
            gap(eff_onset(a, steps), eff_onset(b, steps)) <= 2) {
            for (std::size_t r = lo + 1; r < hi; ++r) {
                const std::uint64_t c =
                    interpolate(eff_crash(a), eff_crash(b), lo, hi, r);
                std::uint64_t o =
                    interpolate(eff_onset(a, steps), eff_onset(b, steps), lo, hi, r);
                if (o > c) o = c;
                PlannedRow row;
                row.crash_step = c;
                row.onset_step = o >= steps + 1 ? 0 : o;
                row.anchored = false;
                rows_[r] = row;
            }
            return;
        }
        const std::size_t mid = lo + (hi - lo) / 2;
        anchor(mid);
        refine(lo, mid);
        refine(mid, hi);
    }

    enum class Axis { Crash, Onset };

    /// Boundary prediction for row r from its nearest certified anchors
    /// (linear in the row index) — the cold-start prior between anchors.
    [[nodiscard]] std::optional<std::uint64_t> predict(std::size_t r, Axis axis) const {
        const auto value = [this, axis](std::size_t i) {
            return axis == Axis::Crash ? eff_crash(*rows_[i])
                                       : eff_onset(*rows_[i], ctx_.steps);
        };
        std::optional<std::size_t> below;
        for (std::size_t i = r; i-- > 0;) {
            if (rows_[i].has_value() && rows_[i]->anchored) {
                below = i;
                break;
            }
        }
        std::optional<std::size_t> above;
        for (std::size_t i = r + 1; i < ctx_.rows; ++i) {
            if (rows_[i].has_value() && rows_[i]->anchored) {
                above = i;
                break;
            }
        }
        if (below.has_value() && above.has_value())
            return interpolate(value(*below), value(*above), *below, *above, r);
        if (below.has_value()) return value(*below);
        if (above.has_value()) return value(*above);
        return std::nullopt;
    }

    void note_update(std::size_t row, std::uint64_t lo, std::uint64_t hi) {
        ++updates_;
        // Stamped with the update ordinal (the planner runs outside any
        // machine clock); b packs the certified bracket [lo, hi].
        PV_TRACE_EVENT(trace::EventKind::PosteriorUpdate, "boundary-posterior",
                       static_cast<std::int64_t>(updates_), row, (hi << 20) | lo);
    }

    const AdaptiveContext& ctx_;
    const CellProbeFn& probe_;
    plugvolt::RowSearch search_;
    std::vector<std::optional<PlannedRow>> rows_;
    std::uint64_t updates_ = 0;
};

}  // namespace

plugvolt::AdaptivePlannerFn adaptive_planner(AcquisitionConfig config) {
    if (config.reboot_cost < 0.0)
        throw ConfigError("reboot_cost must be non-negative");
    if (config.prior_decay <= 0.0 || config.prior_decay >= 1.0)
        throw ConfigError("prior_decay must lie in (0, 1)");
    if (config.prior_floor <= 0.0) throw ConfigError("prior_floor must be positive");
    return [config](const AdaptiveContext& ctx, const CellProbeFn& probe) {
        return Planner(ctx, probe, config).run();
    };
}

}  // namespace pv::infer
