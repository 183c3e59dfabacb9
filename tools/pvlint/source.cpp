// pv-lint — source loading, comment/string blanking, waiver parsing.
#include "pvlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace pvlint {

namespace {

const char* kRuleNames[] = {
    "determinism-rng",  "determinism-clock",     "determinism-unordered",
    "layering",         "layering-cycle",        "msr-constant",
    "msr-raw-access",   "concurrency-primitive", "concurrency-guard",
    "error-path-throw", "waiver",
};

}  // namespace

const char* rule_name(Rule rule) { return kRuleNames[static_cast<int>(rule)]; }

std::optional<Rule> rule_from_name(std::string_view name) {
    for (const Rule rule : all_rules())
        if (name == rule_name(rule)) return rule;
    return std::nullopt;
}

const std::vector<Rule>& all_rules() {
    static const std::vector<Rule> rules = {
        Rule::DeterminismRng,  Rule::DeterminismClock,     Rule::DeterminismUnordered,
        Rule::Layering,        Rule::LayeringCycle,        Rule::MsrConstant,
        Rule::MsrRawAccess,    Rule::ConcurrencyPrimitive, Rule::ConcurrencyGuard,
        Rule::ErrorPathThrow,  Rule::Waiver,
    };
    return rules;
}

int Report::unwaived() const {
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(),
        [](const Finding& f) { return !f.waived && !f.baselined; }));
}

namespace {

/// True when the quote at `pos` separates digits (0x5E12'2026, 20'000)
/// rather than opening a character literal: the token it sits in starts
/// with a digit.  u8'x', L'x' and friends start with a letter.
bool digit_separator(std::string_view text, std::size_t pos) {
    std::size_t p = pos;
    while (p > 0 && (std::isalnum(static_cast<unsigned char>(text[p - 1])) != 0 ||
                     text[p - 1] == '_' || text[p - 1] == '\''))
        --p;
    return p < pos && std::isdigit(static_cast<unsigned char>(text[p])) != 0;
}

}  // namespace

// Blank comments and string/char literals with spaces so token rules see
// only code, while every byte keeps its (line, column).  Handles //,
// /* */, "..." with escapes, '...' with escapes, and R"delim(...)delim".
std::string strip_comments_and_strings(std::string_view text) {
    std::string out(text);
    enum class State { Code, LineComment, BlockComment, String, Char, RawString };
    State state = State::Code;
    std::string raw_delim;  // the ")delim" closer for raw strings
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
            case State::Code:
                if (c == '/' && next == '/') {
                    state = State::LineComment;
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = State::BlockComment;
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == 'R' && next == '"' &&
                           (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                                       text[i - 1] != '_'))) {
                    // R"delim( ... opens a raw string
                    std::size_t p = i + 2;
                    while (p < text.size() && text[p] != '(') ++p;
                    raw_delim = ")" + std::string(text.substr(i + 2, p - (i + 2))) + "\"";
                    for (std::size_t k = i; k <= p && k < text.size(); ++k)
                        if (out[k] != '\n') out[k] = ' ';
                    i = p;
                    state = State::RawString;
                } else if (c == '"') {
                    state = State::String;
                    out[i] = ' ';
                } else if (c == '\'' && !digit_separator(text, i)) {
                    state = State::Char;
                    out[i] = ' ';
                }
                break;
            case State::LineComment:
                if (c == '\n')
                    state = State::Code;
                else
                    out[i] = ' ';
                break;
            case State::BlockComment:
                if (c == '*' && next == '/') {
                    out[i] = out[i + 1] = ' ';
                    ++i;
                    state = State::Code;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::String:
                if (c == '\\' && next != '\0') {
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == '"') {
                    out[i] = ' ';
                    state = State::Code;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::Char:
                if (c == '\\' && next != '\0') {
                    out[i] = out[i + 1] = ' ';
                    ++i;
                } else if (c == '\'') {
                    out[i] = ' ';
                    state = State::Code;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
            case State::RawString:
                if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
                    for (std::size_t k = i; k < i + raw_delim.size(); ++k) out[k] = ' ';
                    i += raw_delim.size() - 1;
                    state = State::Code;
                } else if (c != '\n') {
                    out[i] = ' ';
                }
                break;
        }
    }
    return out;
}

namespace {

std::vector<std::string> split_lines(std::string_view text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t nl = text.find('\n', start);
        if (nl == std::string_view::npos) {
            lines.emplace_back(text.substr(start));
            break;
        }
        lines.emplace_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

bool is_blank(std::string_view s) {
    return std::all_of(s.begin(), s.end(),
                       [](char c) { return std::isspace(static_cast<unsigned char>(c)); });
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
    return s;
}

// Parse one "pv-lint:" comment on raw line `lineno` (1-based).  The
// waiver targets its own line, or — when the line holds nothing but
// comment — the next line that carries code (so a waiver may sit atop a
// multi-line comment block).  Malformed waivers become Rule::Waiver
// findings and suppress nothing.
void parse_waiver(SourceFile& file, int lineno, std::size_t marker_pos) {
    const std::string& raw = file.raw[static_cast<std::size_t>(lineno - 1)];
    const std::string& code = file.code[static_cast<std::size_t>(lineno - 1)];
    int target = lineno;
    if (is_blank(code)) {
        target = lineno + 1;
        while (target <= static_cast<int>(file.code.size()) &&
               is_blank(file.code[static_cast<std::size_t>(target - 1)]))
            ++target;
    }

    auto malformed = [&](const std::string& why) {
        file.waiver_findings.push_back(
            {file.rel, lineno, Rule::Waiver, "malformed pv-lint waiver: " + why});
    };

    std::string_view rest = std::string_view(raw).substr(marker_pos);
    rest.remove_prefix(std::string_view("pv-lint:").size());
    rest = trim(rest);
    if (rest.substr(0, 6) != "allow(") {
        malformed("expected 'allow(<rule>[,<rule>...]) <reason>'");
        return;
    }
    rest.remove_prefix(6);
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
        malformed("unterminated allow(");
        return;
    }

    Waiver waiver;
    waiver.comment_line = lineno;
    std::string_view list = rest.substr(0, close);
    while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view name = trim(list.substr(0, comma));
        const std::optional<Rule> rule = rule_from_name(name);
        if (!rule || *rule == Rule::Waiver) {
            malformed("unknown rule '" + std::string(name) + "'");
            return;
        }
        waiver.rules.insert(*rule);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
    }
    if (waiver.rules.empty()) {
        malformed("empty rule list");
        return;
    }
    const std::string_view reason = trim(rest.substr(close + 1));
    waiver.has_reason = !reason.empty();
    if (!waiver.has_reason)
        malformed("reason is mandatory after allow(...)");
    file.waivers.emplace(target, waiver);
}

}  // namespace

SourceFile load_source(const std::filesystem::path& path, std::string rel) {
    SourceFile file;
    file.rel = std::move(rel);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    file.raw = split_lines(text);
    file.code = split_lines(strip_comments_and_strings(text));
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
        const std::size_t pos = file.raw[i].find("pv-lint:");
        if (pos != std::string::npos) parse_waiver(file, static_cast<int>(i + 1), pos);
    }
    return file;
}

std::string baseline_key(const Finding& finding) {
    return finding.file + ":" + std::to_string(finding.line) + ":" + rule_name(finding.rule);
}

std::set<std::string> load_baseline(const std::filesystem::path& path) {
    std::set<std::string> keys;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::string_view t = trim(line);
        if (t.empty() || t.front() == '#') continue;
        keys.insert(std::string(t));
    }
    return keys;
}

void apply_baseline(Report& report, const std::set<std::string>& baseline) {
    for (Finding& f : report.findings) {
        if (f.rule == Rule::Waiver) continue;  // waiver hygiene is never baselined
        if (!f.waived && baseline.count(baseline_key(f)) != 0) f.baselined = true;
    }
}

}  // namespace pvlint
