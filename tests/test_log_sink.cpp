// Regression for the log subsystem's two shared pieces of state: the
// level (an atomic: benches flip it while workers log) and the sink
// (mutex-serialized emission).  Run under TSan this is the witness that
// the set_log_level-vs-reader race stays fixed; under any build it
// verifies lines are never torn.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace pv {
namespace {

/// Restores the process-wide level on scope exit.
class LevelGuard {
public:
    LevelGuard() : previous_(log_level()) {}
    ~LevelGuard() { set_log_level(previous_); }

private:
    LogLevel previous_;
};

TEST(LogSink, LevelFilterIsRespected) {
    const LevelGuard guard;
    test::CerrCapture capture;
    set_log_level(LogLevel::Off);
    log_error("filtered out");
    EXPECT_TRUE(capture.str().empty());
    set_log_level(LogLevel::Debug);
    log_debug("now visible");
    EXPECT_NE(capture.str().find("now visible"), std::string::npos);
}

TEST(LogSink, ConcurrentEmissionWhileTheLevelFlips) {
    constexpr int kThreads = 4;
    constexpr int kLinesPerThread = 200;
    const LevelGuard guard;
    const test::CerrCapture capture;
    set_log_level(LogLevel::Warn);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < kLinesPerThread; ++i)
                log_warn("worker-", t, " line ", i, " end");
        });
    }
    // The race under test: flipping the level while every worker reads it.
    for (int flip = 0; flip < 500; ++flip)
        set_log_level(flip % 2 == 0 ? LogLevel::Warn : LogLevel::Error);
    set_log_level(LogLevel::Warn);
    for (std::thread& w : workers) w.join();

    // Whatever passed the filter must have been emitted atomically:
    // every captured line is exactly one worker's message, never a blend.
    std::istringstream lines(capture.str());
    std::string line;
    int emitted = 0;
    while (std::getline(lines, line)) {
        ++emitted;
        EXPECT_TRUE(line.starts_with("[pv WARN ] worker-")) << "torn line: " << line;
        EXPECT_TRUE(line.ends_with(" end")) << "torn line: " << line;
    }
    EXPECT_LE(emitted, kThreads * kLinesPerThread);
}

}  // namespace
}  // namespace pv
