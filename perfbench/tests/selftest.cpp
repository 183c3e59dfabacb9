// Tests of the benchmark's own code: the percentile rule, span self
// time, open-loop lateness accounting and the set-up schedule.  Exit
// code 0 = all pass.
#include <cstdio>
#include <vector>

#include "open_loop.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                        \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ++failures;                                                     \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
        }                                                                   \
    } while (0)

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void percentile_rule() {
    using pvbench::tail;
    // 1000 samples: p99 has exactly 10 beyond it.
    pvbench::Tail t = tail(one_to(1000), 990);
    EXPECT(t.supported && t.per_mille == 990 && t.value == 990.0 && t.n == 1000);
    // 999 samples: p99 would leave 9 beyond, so p95 is reported.
    t = tail(one_to(999), 990);
    EXPECT(t.supported && t.per_mille == 950 && t.value == 950.0);
    // 100 samples: p90 has exactly 10 beyond.
    t = tail(one_to(100), 990);
    EXPECT(t.supported && t.per_mille == 900 && t.value == 90.0);
    // 10000 samples: never above the wanted percentile.
    t = tail(one_to(10000), 990);
    EXPECT(t.per_mille == 990 && t.value == 9900.0);
    t = tail(one_to(10000), 999);
    EXPECT(t.per_mille == 999 && t.value == 9990.0);
    // 40 samples: p75 leaves exactly 10.
    t = tail(one_to(40), 990);
    EXPECT(t.supported && t.per_mille == 750 && t.value == 30.0);
    // Fewer than 20 samples: no rung qualifies; the median, flagged.
    t = tail(one_to(19), 990);
    EXPECT(!t.supported && t.value == 10.0 && t.n == 19);
    t = tail({}, 990);
    EXPECT(!t.supported && t.n == 0 && t.value == 0.0);
    EXPECT(pvbench::samples_beyond(20, 500) == 10);
    EXPECT(pvbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    EXPECT(pvbench::percentile(one_to(10), 1000) == 10.0);
}

pvbench::Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                   std::int64_t end) {
    return {id, parent, 0, "s", start, end};
}

void span_self_time() {
    // Parent [0,100) with children [10,30) and [20,50) overlapping, a
    // child sticking out past the end [90,120), and a grandchild inside
    // the first child that must not count against the parent twice.
    const std::vector<pvbench::Span> spans = {
        span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50),
        span(4, 1, 90, 120), span(5, 2, 12, 18), span(6, 0, 200, 210)};
    const std::vector<std::int64_t> self = pvbench::self_times(spans);
    EXPECT(self[0] == 100 - 40 - 10);  // covered: [10,50) + [90,100)
    EXPECT(self[1] == 20 - 6);
    EXPECT(self[2] == 30);
    EXPECT(self[3] == 30);
    EXPECT(self[4] == 6);
    EXPECT(self[5] == 10);
    EXPECT(pvbench::total_self_ns(spans, "s") == 50 + 14 + 30 + 30 + 6 + 10);

    // Recorded spans nest by thread-local parentage.
    pvbench::Tracer tracer(true);
    {
        const pvbench::Tracer::Scope outer(tracer, "outer", 7);
        const pvbench::Tracer::Scope inner(tracer, "inner");
    }
    const std::vector<pvbench::Span> got = tracer.spans();
    EXPECT(got.size() == 2 && got[0].name == "inner" && got[1].name == "outer");
    if (got.size() == 2) {
        EXPECT(got[0].parent == got[1].id && got[1].parent == 0);
        EXPECT(got[0].request == 7 && got[1].request == 7);
    }
    pvbench::Tracer off(false);
    { const pvbench::Tracer::Scope ignored(off, "x"); }
    EXPECT(off.spans().empty());
}

void open_loop_lateness() {
    // Fake clock: period 100; request 1's operation stalls for 350, so
    // requests 2 and 3 leave late and the generator then catches up
    // without skipping any request.
    std::int64_t clock = 0;
    const pvbench::OpenLoop schedule{0, 100};
    pvbench::LatenessLog log;
    std::vector<std::int64_t> sent_at;
    const std::uint64_t issued = pvbench::run_open_loop(
        schedule, [&] { return clock; }, [&](std::int64_t t) { clock = t; },
        [&] { return sent_at.size() == 6; },
        [&](std::uint64_t i) {
            sent_at.push_back(clock);
            clock += i == 1 ? 350 : 10;
        },
        log);
    EXPECT(issued == 6);
    EXPECT((sent_at == std::vector<std::int64_t>{0, 100, 450, 460, 470, 500}));
    const std::vector<double>& late = log.late_us();
    EXPECT(late.size() == 6);
    if (late.size() == 6) {
        EXPECT(late[0] == 0.0 && late[1] == 0.0);
        EXPECT(late[2] == 0.25 && late[3] == 0.16 && late[4] == 0.07 && late[5] == 0.0);
    }
}

void setup_schedule() {
    // Every repetition runs once; repetition 0 comes before round 0 and
    // the rest are spread evenly between the rounds.
    for (const std::uint64_t rounds : {1u, 2u, 30u, 80u, 200u}) {
        std::vector<double> setup_s;
        std::vector<std::uint64_t> before;  // round each repetition preceded
        std::uint64_t round = 0;
        const auto once = [&](int rep) {
            before.push_back(round);
            return static_cast<double>(rep);
        };
        for (round = 0; round <= rounds; ++round)
            pvbench::run_due_setups(setup_s, round, rounds, once);
        EXPECT(setup_s.size() == static_cast<std::size_t>(pvbench::kSetupRepeats));
        EXPECT(!before.empty() && before.front() == 0);
        for (std::size_t k = 0; k < setup_s.size(); ++k) EXPECT(setup_s[k] == k);
        // At most ceil(repeats / rounds) + 1 repetitions between two rounds.
        const std::uint64_t cap = (pvbench::kSetupRepeats + rounds - 1) / rounds + 1;
        for (std::uint64_t r = 0; r <= rounds; ++r) {
            std::uint64_t here = 0;
            for (const std::uint64_t b : before) here += b == r;
            EXPECT(here <= cap);
        }
    }
    EXPECT(pvbench::setup_seed(7, 0) == 7);
    EXPECT(pvbench::setup_seed(7, 1) != 7);
    EXPECT(pvbench::setup_seed(7, 1) != pvbench::setup_seed(7, 2));
}

}  // namespace

int main() {
    percentile_rule();
    span_self_time();
    open_loop_lateness();
    setup_schedule();
    if (failures != 0) {
        std::fprintf(stderr, "%d expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-test: all passed\n");
    return 0;
}
