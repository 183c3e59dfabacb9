// pv-lint — subsystem layering DAG and include-cycle detection.
//
// The layer model mirrors the CMake link graph (src/*/CMakeLists.txt):
// each subsystem has a rank, and a cross-subsystem include is legal only
// when it points at a STRICTLY lower rank.  Two virtual subsystems carve
// files out of their directories, exactly as the build already does:
//   - "check" is split: assert/state_hasher/invariant_registry (pv_check,
//     rank 1, util-only) vs msr_auditor (pv_check_audit, rank 5, needs
//     os + plugvolt);
//   - "msr-regs" is the single registry header os/msr_regs.hpp at rank 0,
//     includable from anywhere (it is how rule msr-constant stays
//     satisfiable).
// The trace subsystem is additionally reachable only through its tap
// headers (trace.hpp, metrics.hpp, event.hpp); recorder/export internals
// stay private.  The util layer sits below trace and knows nothing of
// it: no include, no hook.
#include "pvlint.hpp"

#include <map>
#include <string>
#include <vector>

namespace pvlint {

namespace {

struct Layer {
    const char* name;
    int rank;
};

// Subsystem directory -> rank.  Keep in sync with DESIGN §5g when a new
// subsystem is added; pvlint flags includes of unknown subsystems so a
// new directory cannot silently bypass the DAG.
const std::map<std::string, Layer, std::less<>> kLayers = {
    {"util", {"util", 0}},           {"trace", {"trace", 1}},
    {"check", {"check", 1}},         {"resilience", {"resilience", 2}},
    {"sim", {"sim", 2}},             {"os", {"os", 3}},
    {"sgx", {"sgx", 4}},             {"plugvolt", {"plugvolt", 4}},
    {"workload", {"workload", 5}},   {"defenses", {"defenses", 5}},
    {"infer", {"infer", 5}},         {"attacks", {"attacks", 6}},
    {"fleet", {"fleet", 6}},         {"campaign", {"campaign", 7}},
    {"serve", {"serve", 8}},
};

const Layer kMsrRegs = {"msr-regs", 0};
const Layer kCheckAudit = {"check-audit", 5};

// Trace headers outsiders may include (the taps); everything else in
// src/trace is internal.
bool is_trace_tap(std::string_view inc) {
    return inc == "trace/trace.hpp" || inc == "trace/metrics.hpp" || inc == "trace/event.hpp";
}

// Classify a src-relative path like "sim/machine.hpp" (no "src/" prefix).
const Layer* classify(std::string_view src_rel) {
    if (src_rel == "os/msr_regs.hpp") return &kMsrRegs;
    if (src_rel.substr(0, 6) == "check/") {
        if (src_rel.find("msr_auditor") != std::string_view::npos) return &kCheckAudit;
        return &kLayers.find("check")->second;
    }
    const std::size_t slash = src_rel.find('/');
    if (slash == std::string_view::npos) return nullptr;
    const auto it = kLayers.find(src_rel.substr(0, slash));
    return it == kLayers.end() ? nullptr : &it->second;
}

// Project includes of the form #include "sub/path.hpp", with line numbers.
struct IncludeEdge {
    std::string target;  // as written, src-relative
    int line;
};

std::vector<IncludeEdge> project_includes(const SourceFile& file) {
    std::vector<IncludeEdge> edges;
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
        // Includes survive blanking except the quoted path itself, so
        // parse the raw line but only when the code line confirms a
        // preprocessor directive (not a comment mentioning #include).
        const std::string& code = file.code[i];
        const std::size_t hash = code.find('#');
        if (hash == std::string::npos ||
            code.find("include", hash) == std::string::npos)
            continue;
        const std::string& raw = file.raw[i];
        const std::size_t open = raw.find('"');
        if (open == std::string::npos) continue;
        const std::size_t close = raw.find('"', open + 1);
        if (close == std::string::npos) continue;
        edges.push_back({raw.substr(open + 1, close - open - 1), static_cast<int>(i + 1)});
    }
    return edges;
}

}  // namespace

namespace detail {

// Both layering rules; files is the full scanned set (rel -> SourceFile).
void check_layering(const std::map<std::string, SourceFile>& files,
                    std::vector<Finding>& findings) {
    // --- DAG rule over src/ files -------------------------------------
    for (const auto& [rel, file] : files) {
        if (rel.substr(0, 4) != "src/") continue;
        const std::string src_rel = rel.substr(4);
        const Layer* from = classify(src_rel);
        if (from == nullptr) continue;  // loose file directly under src/
        for (const IncludeEdge& edge : project_includes(file)) {
            const Layer* to = classify(edge.target);
            if (to == nullptr) {
                findings.push_back(
                    {rel, edge.line, Rule::Layering,
                     "include \"" + edge.target +
                         "\" targets a subsystem unknown to the layer table "
                         "(register it in tools/pvlint/layers.cpp and DESIGN §5g)"});
                continue;
            }
            if (std::string_view(to->name) == "trace" &&
                std::string_view(from->name) != "trace" && !is_trace_tap(edge.target)) {
                findings.push_back(
                    {rel, edge.line, Rule::Layering,
                     "internal trace header \"" + edge.target +
                         "\": outside src/trace only the taps "
                         "(trace/trace.hpp, trace/metrics.hpp, trace/event.hpp) are includable"});
                continue;
            }
            if (std::string_view(from->name) == std::string_view(to->name)) continue;
            if (to->rank >= from->rank) {
                findings.push_back(
                    {rel, edge.line, Rule::Layering,
                     std::string("layering violation: ") + from->name + " (rank " +
                         std::to_string(from->rank) + ") must not include " + to->name +
                         " (rank " + std::to_string(to->rank) +
                         "); includes must point strictly down the subsystem DAG"});
            }
        }
    }

    // --- file-level include-cycle detection ---------------------------
    // Edges resolve "sub/file.hpp" -> "src/sub/file.hpp" when that file
    // is in the scanned set; DFS colors detect back edges.
    std::map<std::string, std::vector<IncludeEdge>> graph;
    for (const auto& [rel, file] : files) {
        if (rel.substr(0, 4) != "src/") continue;
        for (const IncludeEdge& edge : project_includes(file)) {
            const std::string resolved = "src/" + edge.target;
            if (files.count(resolved) != 0) graph[rel].push_back({resolved, edge.line});
        }
    }
    enum class Color { White, Grey, Black };
    std::map<std::string, Color> color;
    std::vector<std::string> stack;

    // Iterative DFS; on a grey target, report the back edge once.
    struct Frame {
        std::string node;
        std::size_t next = 0;
    };
    for (const auto& [start, _] : graph) {
        if (color[start] != Color::White) continue;
        std::vector<Frame> frames{{start}};
        color[start] = Color::Grey;
        stack.push_back(start);
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const auto it = graph.find(frame.node);
            if (it == graph.end() || frame.next >= it->second.size()) {
                color[frame.node] = Color::Black;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const IncludeEdge& edge = it->second[frame.next++];
            if (color[edge.target] == Color::Grey) {
                std::string path;
                bool in_cycle = false;
                for (const std::string& node : stack) {
                    if (node == edge.target) in_cycle = true;
                    if (in_cycle) path += node + " -> ";
                }
                findings.push_back({frame.node, edge.line, Rule::LayeringCycle,
                                    "include cycle: " + path + edge.target});
            } else if (color[edge.target] == Color::White) {
                color[edge.target] = Color::Grey;
                stack.push_back(edge.target);
                frames.push_back({edge.target});
            }
        }
    }
}

}  // namespace detail

}  // namespace pvlint
