// Open-loop request generator with lateness accounting.
//
// Request i is due at start + i * period whatever happened to earlier
// requests: a stall makes later requests late, and the generator then
// catches up without skipping any.  The generator sleeps until each due
// time and never busy-spins (a spinning client competes with the
// system under test for the same cores).  How late each request was
// sent is logged, so a generator that could not keep its schedule shows
// in the results instead of silently lowering the offered load.
#pragma once

#include <cstdint>
#include <vector>

namespace pvbench {

struct OpenLoop {
    std::int64_t start_ns = 0;
    std::int64_t period_ns = 1;

    [[nodiscard]] std::int64_t due(std::uint64_t i) const {
        return start_ns + static_cast<std::int64_t>(i) * period_ns;
    }
};

class LatenessLog {
public:
    /// Request due at `due_ns` left at `sent_ns` (early counts as 0).
    void sent(std::int64_t due_ns, std::int64_t sent_ns) {
        const std::int64_t late = sent_ns > due_ns ? sent_ns - due_ns : 0;
        late_us_.push_back(static_cast<double>(late) / 1e3);
    }

    [[nodiscard]] const std::vector<double>& late_us() const { return late_us_; }

private:
    std::vector<double> late_us_;
};

/// Issue `op(i)` on `schedule` until `stop()` returns true.  `now()`
/// returns host nanoseconds and `sleep_until(t)` blocks until then;
/// both are parameters so the accounting can be tested on a fake
/// clock.  Returns the number of requests issued.
template <typename Now, typename SleepUntil, typename Stop, typename Op>
std::uint64_t run_open_loop(const OpenLoop& schedule, Now&& now, SleepUntil&& sleep_until,
                            Stop&& stop, Op&& op, LatenessLog& log) {
    std::uint64_t i = 0;
    while (!stop()) {
        const std::int64_t due = schedule.due(i);
        if (now() < due) sleep_until(due);
        log.sent(due, now());
        op(i);
        ++i;
    }
    return i;
}

}  // namespace pvbench
