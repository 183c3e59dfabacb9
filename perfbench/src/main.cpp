// pv_e2e: the end-to-end benchmark's executable.
//
//   pv_e2e --workload <fleet_characterize|attack_matrix|daemon_serve>
//          --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints a table of every metric for people, then, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics.  Exit code 0 when every output check passed, 1
// when one failed, 2 on a usage error or an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "report.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: pv_e2e --workload <fleet_characterize|attack_matrix|daemon_serve>\n"
                 "              --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    pvbench::Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") opt.workload = value;
        else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 0);
        else if (flag == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace") opt.trace = value == "1";
        else if (flag == "--work-dir") opt.work_dir = value;
        else return usage();
    }
    if (argc % 2 != 1 || opt.workload.empty() || !(opt.seconds > 0.0)) return usage();

    // Audit findings are tallied per cell; per-access warnings would
    // swamp the output.
    pv::set_log_level(pv::LogLevel::Error);
    try {
        std::filesystem::create_directories(opt.work_dir);
        pvbench::Report report;
        if (opt.workload == "fleet_characterize") report = pvbench::run_fleet_characterize(opt);
        else if (opt.workload == "attack_matrix") report = pvbench::run_attack_matrix(opt);
        else if (opt.workload == "daemon_serve") report = pvbench::run_daemon_serve(opt);
        else return usage();
        report.conform(pvbench::kEndToEnd, pvbench::kPerLayer);
        std::fprintf(stderr, "== %s seed %llu (%s)\n", opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed),
                     opt.trace ? "traced" : "untraced");
        report.print(stderr);
        std::printf("%s\n", report.json(opt.trace).c_str());
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pv_e2e: %s\n", e.what());
        return 2;
    }
}
