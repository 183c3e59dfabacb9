// pv-lint CLI.
//
//   pvlint --root <repo> [options]
//
// Exit codes: 0 clean, 1 blocking findings (or, with --unused-public, a
// stale baseline entry), 2 usage/environment error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "pvlint.hpp"

namespace {

int usage(std::ostream& out, int code) {
    out << "usage: pvlint --root DIR [options]\n"
           "  --root DIR             repository root to scan (required)\n"
           "  --baseline FILE        baseline file (default: ROOT/tools/pvlint/baseline.txt)\n"
           "  --no-baseline          ignore any baseline file\n"
           "  --json FILE            write the machine-readable report\n"
           "  --write-baseline FILE  accept every current finding into FILE and exit 0\n"
           "  --show-suppressed      also print waived/baselined findings\n"
           "  --unused-public        print the unused-public report instead (exits 1 on a\n"
           "                         stale kept name: ROOT/tools/pvlint/unused_public.txt)\n"
           "  --list-rules           print every rule id and exit\n";
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    pvlint::Config config;
    std::filesystem::path baseline_path;
    std::filesystem::path json_path;
    std::filesystem::path write_baseline_path;
    bool no_baseline = false;
    bool show_suppressed = false;
    bool unused_public = false;

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "pvlint: " << arg << " needs a value\n";
                std::exit(usage(std::cerr, 2));
            }
            return argv[++i];
        };
        if (arg == "--root") {
            config.root = value();
        } else if (arg == "--baseline") {
            baseline_path = value();
        } else if (arg == "--no-baseline") {
            no_baseline = true;
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--write-baseline") {
            write_baseline_path = value();
        } else if (arg == "--show-suppressed") {
            show_suppressed = true;
        } else if (arg == "--unused-public") {
            unused_public = true;
        } else if (arg == "--list-rules") {
            for (const pvlint::Rule rule : pvlint::all_rules())
                std::cout << pvlint::rule_name(rule) << '\n';
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "pvlint: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (config.root.empty()) {
        std::cerr << "pvlint: --root is required\n";
        return usage(std::cerr, 2);
    }
    if (!std::filesystem::exists(config.root / "src")) {
        std::cerr << "pvlint: no src/ under " << config.root << " — wrong --root?\n";
        return 2;
    }

    if (unused_public) {
        try {
            return pvlint::run_unused_public(config.root, no_baseline, std::cout);
        } catch (const std::runtime_error& e) {
            std::cerr << "pvlint: " << e.what() << '\n';
            return 2;
        }
    }

    pvlint::Report report = pvlint::run(config);

    if (!no_baseline) {
        if (baseline_path.empty()) {
            const auto candidate = config.root / "tools" / "pvlint" / "baseline.txt";
            if (std::filesystem::exists(candidate)) baseline_path = candidate;
        }
        if (!baseline_path.empty())
            pvlint::apply_baseline(report, pvlint::load_baseline(baseline_path));
    }

    if (!write_baseline_path.empty()) {
        std::ofstream out(write_baseline_path);
        if (!out) {
            std::cerr << "pvlint: cannot write " << write_baseline_path << '\n';
            return 2;
        }
        pvlint::write_baseline(report, out);
        std::cout << "pvlint: baseline written to " << write_baseline_path << '\n';
        return 0;
    }
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "pvlint: cannot write " << json_path << '\n';
            return 2;
        }
        pvlint::write_json(report, out);
    }

    pvlint::write_text(report, std::cout, show_suppressed);
    return report.unwaived() == 0 ? 0 : 1;
}
