// pv-lint — the --unused-public report.
//
// A declared name counts as used when its identifier appears in the
// comment- and string-blanked code of any file under src, bench,
// examples, perfbench or tools other than the header's own .hpp/.cpp
// pair; tests/ never counts.  A member function's identifier counts only
// where it names a member: after '.', '->' or '::' (a local variable
// spelled like a member is no use of it).  Declarations are read with a
// small scope tracker: statements at namespace scope and at public class
// scope are read, function bodies, initializers and enum bodies are
// skipped.
#include "pvlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <tuple>

namespace pvlint {

namespace {

namespace fs = std::filesystem;

/// Directories whose files can use a name.  tests/ is read only to mark
/// the names that tests use.
constexpr const char* kUserDirs[] = {"src", "bench", "examples", "perfbench", "tools", "tests"};

/// Identifiers that precede '(' without naming a declared function.
constexpr std::string_view kNotFunctions[] = {
    "alignas", "alignof", "decltype", "explicit", "noexcept", "requires", "sizeof",
    "static_assert", "operator", "return", "void", "bool", "char", "int", "long",
    "short", "unsigned", "signed", "float", "double", "auto", "typeid", "defined",
};

/// What may stand right before a '{' that opens a function body; any
/// other token opens an initializer inside a statement that goes on.
constexpr std::string_view kBodyOpeners[] = {")", "}", "const", "override", "final",
                                              "noexcept", "try", "mutable"};

template <std::size_t N>
bool one_of(std::string_view s, const std::string_view (&set)[N]) {
    return std::find(std::begin(set), std::end(set), s) != std::end(set);
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// An identifier with no lower-case letter (PV_GUARDED_BY): a macro.
bool is_macro(std::string_view ident) {
    return std::none_of(ident.begin(), ident.end(),
                        [](char c) { return std::islower(static_cast<unsigned char>(c)); });
}

struct Token {
    std::string text;  ///< an identifier, or one punctuation character
    int line = 0;      ///< 1-based
    bool ident = false;
};

/// Tokens of blanked code.  Numbers are skipped whole (0x150 yields no
/// identifier); preprocessor lines and their continuations are dropped
/// unless `directives` is set.
std::vector<Token> tokenize(const std::vector<std::string>& code, bool directives) {
    std::vector<Token> tokens;
    bool continued = false;
    for (std::size_t l = 0; l < code.size(); ++l) {
        const std::string& line = code[l];
        const std::size_t first = line.find_first_not_of(" \t");
        const bool directive = continued || (first != std::string::npos && line[first] == '#');
        const std::size_t last = line.find_last_not_of(" \t\r");
        continued = directive && last != std::string::npos && line[last] == '\\';
        if (directive && !directives) continue;
        for (std::size_t i = 0; i < line.size();) {
            const char c = line[i];
            if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                ++i;
            } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
                while (i < line.size() && (is_ident_char(line[i]) || line[i] == '.')) ++i;
            } else if (is_ident_char(c)) {
                std::size_t end = i;
                while (end < line.size() && is_ident_char(line[end])) ++end;
                tokens.push_back({line.substr(i, end - i), static_cast<int>(l + 1), true});
                i = end;
            } else {
                tokens.push_back({std::string(1, c), static_cast<int>(l + 1), false});
                ++i;
            }
        }
    }
    return tokens;
}

/// What one statement, tokens [from, to), declares.  Tokens inside
/// braces, brackets, parentheses and template arguments are skipped.
struct Statement {
    bool is_namespace = false;
    bool is_enum = false;
    bool is_friend = false;
    bool assigns = false;          ///< an '=' before any declared name
    bool is_class = false;         ///< "class" (private by default)
    bool trailing_return = false;  ///< "-> T" after the function's parameters
    const Token* type = nullptr;   ///< class/struct/union/enum name
    const Token* alias = nullptr;  ///< using NAME = ...
    const Token* function = nullptr;
};

Statement read_statement(const std::vector<Token>& tokens, std::size_t from, std::size_t to) {
    Statement st;
    int braces = 0, brackets = 0, parens = 0, angles = 0;
    bool naming_type = false;  // after class/struct/union, before its name
    for (std::size_t k = from; k < to; ++k) {
        const Token& s = tokens[k];
        const Token* prev = k > from ? &tokens[k - 1] : nullptr;
        const Token* next = k + 1 < to ? &tokens[k + 1] : nullptr;
        if (s.text == "{") ++braces;
        if (s.text == "}") --braces;
        if (braces > 0) continue;
        if (s.text == "[") ++brackets;
        if (s.text == "]") --brackets;
        if (s.text == "(") ++parens;
        if (s.text == ")") --parens;
        if (s.text == "<" && prev != nullptr && (prev->ident || prev->text == ">") &&
            prev->text != "operator")
            ++angles;
        if (s.text == ">" && angles > 0) --angles;
        if (brackets > 0 || parens > 0 || angles > 0) continue;
        if (s.text == "=") st.assigns = true;
        if (s.text == "-" && next != nullptr && next->text == ">" && st.function != nullptr)
            st.trailing_return = true;
        if (!s.ident || st.assigns || st.function != nullptr) continue;
        if (s.text == "namespace") st.is_namespace = true;
        if (s.text == "enum") st.is_enum = true;
        if (s.text == "friend") st.is_friend = true;
        // The type's name is the first identifier after the keyword that
        // is not a macro (class PV_CAPABILITY("mutex") Mutex).
        if (naming_type && !is_macro(s.text)) {
            st.type = &s;
            naming_type = false;
            continue;
        }
        if ((s.text == "class" || s.text == "struct" || s.text == "union") &&
            st.type == nullptr && !naming_type) {
            st.is_class = s.text == "class" && !st.is_enum;
            naming_type = true;
            continue;
        }
        if (s.text == "using" && next != nullptr && next->ident && k + 2 < to &&
            tokens[k + 2].text == "=")
            st.alias = next;
        if (next != nullptr && next->text == "(" && !is_macro(s.text) &&
            !one_of(s.text, kNotFunctions) && (prev == nullptr || prev->text != "~"))
            st.function = &s;
    }
    return st;
}

/// One public function or type a header declares.
struct Declared {
    int line = 0;
    std::string name;
    bool member = false;  ///< a function declared in a class body
};

/// The public functions and types a header declares, in order of first
/// declaration.
std::vector<Declared> declared_names(const std::vector<Token>& tokens) {
    struct Scope {
        bool declares = false;   ///< a namespace or class body
        bool visible = false;    ///< its declarations are public API
        bool is_class = false;
        bool continues = false;  ///< an initializer: its statement goes on after it
    };
    std::vector<Scope> scopes{{true, true, false, false}};
    std::vector<Declared> names;
    const auto collect = [&names, &scopes](const Statement& st) {
        if (st.is_friend) return;
        for (const Token* t : {st.type, st.alias, st.is_namespace ? nullptr : st.function}) {
            if (t == nullptr) continue;
            const bool seen = std::any_of(names.begin(), names.end(),
                                          [t](const Declared& n) { return n.name == t->text; });
            if (!seen)
                names.push_back({t->line, t->text, t == st.function && scopes.back().is_class});
        }
    };

    std::size_t start = 0;  // first token of the statement being read
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (t.text == "}") {
            const Scope closed = scopes.back();
            if (scopes.size() > 1) scopes.pop_back();
            if (!closed.continues) start = i + 1;
            continue;
        }
        const Scope scope = scopes.back();
        if (!scope.declares) {
            if (t.text == "{") scopes.push_back({});
            continue;
        }
        if (scope.is_class && i == start && i + 1 < tokens.size() &&
            tokens[i + 1].text == ":" &&
            (t.text == "public" || t.text == "private" || t.text == "protected")) {
            scopes.back().visible = t.text == "public" && scopes[scopes.size() - 2].visible;
            start = i + 2;
            ++i;
            continue;
        }
        if (t.text == ";") {
            if (scope.visible) collect(read_statement(tokens, start, i));
            start = i + 1;
            continue;
        }
        if (t.text != "{") continue;

        const Statement st = read_statement(tokens, start, i);
        if (st.is_namespace) {
            const std::string& last = tokens[i - 1].text;
            const bool named = i > start && tokens[i - 1].ident && last != "namespace";
            scopes.push_back({true, scope.visible && named && last != "detail", false, false});
            start = i + 1;
        } else if (st.type != nullptr && !st.is_enum && st.function == nullptr && !st.assigns) {
            if (scope.visible) collect(st);
            scopes.push_back({true, scope.visible && !st.is_class, true, false});
            start = i + 1;
        } else {
            const bool continues =
                i > start && !one_of(tokens[i - 1].text, kBodyOpeners) && !st.trailing_return;
            if (!continues && scope.visible) collect(st);
            scopes.push_back({false, false, false, continues});
        }
    }
    return names;
}

/// Build trees, hidden directories and the lint fixtures.
bool skipped(const std::string& rel) {
    const fs::path path(rel);
    return rel.starts_with("tests/lint_fixtures/") ||
           std::any_of(path.begin(), path.end(), [](const fs::path& part) {
               const std::string s = part.string();
               return s.starts_with(".") || s.starts_with("build");
           });
}

std::string stem_of(const std::string& rel) { return rel.substr(0, rel.rfind('.')); }

/// Whether tokens[k] names a member: it follows '.', '->' or '::'.
bool names_member(const std::vector<Token>& tokens, std::size_t k) {
    if (k == 0) return false;
    const std::string& prev = tokens[k - 1].text;
    if (prev == ".") return true;
    return k >= 2 && ((prev == ">" && tokens[k - 2].text == "-") ||
                      (prev == ":" && tokens[k - 2].text == ":"));
}

}  // namespace

std::vector<UnusedName> find_unused_public(const fs::path& root) {
    // name -> stems of the files that use it: anywhere, and as a member
    std::map<std::string, std::set<std::string>> users;
    std::map<std::string, std::set<std::string>> member_users;
    std::vector<std::pair<std::string, std::vector<Token>>> headers;
    for (const char* dir : kUserDirs) {
        if (!fs::exists(root / dir)) continue;
        for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
            const std::string rel = fs::relative(entry.path(), root).generic_string();
            if (skipped(rel)) continue;
            const SourceFile file = load_source(entry.path(), rel);
            const std::string user = rel.starts_with("tests/") ? "tests/" : stem_of(rel);
            const std::vector<Token> tokens = tokenize(file.code, true);
            for (std::size_t k = 0; k < tokens.size(); ++k) {
                if (!tokens[k].ident) continue;
                users[tokens[k].text].insert(user);
                if (names_member(tokens, k)) member_users[tokens[k].text].insert(user);
            }
            if (rel.starts_with("src/") && ext == ".hpp")
                headers.emplace_back(rel, tokenize(file.code, false));
        }
    }

    std::vector<UnusedName> unused;
    for (const auto& [rel, tokens] : headers) {
        const std::string stem = stem_of(rel);
        for (const Declared& d : declared_names(tokens)) {
            const std::set<std::string>& stems = (d.member ? member_users : users)[d.name];
            if (std::all_of(stems.begin(), stems.end(), [&stem](const std::string& s) {
                    return s == stem || s == "tests/";
                }))
                unused.push_back({rel, d.line, d.name, stems.count("tests/") != 0});
        }
    }
    std::sort(unused.begin(), unused.end(), [](const UnusedName& a, const UnusedName& b) {
        return std::tie(a.file, a.line, a.name) < std::tie(b.file, b.line, b.name);
    });
    return unused;
}

std::map<std::string, std::string> load_unused_public_baseline(const fs::path& path) {
    std::map<std::string, std::string> kept;
    std::ifstream in(path);
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        if (line.empty() || line.front() == '#') continue;
        const std::size_t gap = line.find_first_of(" \t");
        const std::size_t reason = gap == std::string::npos
                                       ? std::string::npos
                                       : line.find_first_not_of(" \t", gap);
        if (reason == std::string::npos)
            throw std::runtime_error(path.generic_string() + ":" + std::to_string(n) +
                                     ": a kept name needs its reason");
        kept[line.substr(0, gap)] = line.substr(reason);
    }
    return kept;
}

int write_unused_public(const std::vector<UnusedName>& names,
                        const std::map<std::string, std::string>& baseline, std::ostream& out) {
    std::set<std::string> listed;
    int kept = 0;
    for (const UnusedName& n : names) {
        const std::string key = n.file + ":" + n.name;
        listed.insert(key);
        out << n.file << ':' << n.line << ": " << n.name << (n.tests ? " [tests]" : "");
        const auto it = baseline.find(key);
        if (it != baseline.end()) {
            ++kept;
            out << " (kept: " << it->second << ')';
        }
        out << '\n';
    }
    int stale = 0;
    for (const auto& [key, reason] : baseline) {
        if (listed.count(key) != 0) continue;
        ++stale;
        out << key << ": stale baseline entry (now used, or gone)\n";
    }
    out << "pv-lint --unused-public: " << names.size() << " names (" << kept << " kept, "
        << static_cast<int>(names.size()) - kept << " new, " << stale
        << " stale baseline entries)\n";
    return stale;
}

int run_unused_public(const fs::path& root, bool no_baseline, std::ostream& out) {
    std::map<std::string, std::string> kept;
    const fs::path kept_path = root / "tools" / "pvlint" / "unused_public.txt";
    if (!no_baseline && fs::exists(kept_path)) kept = load_unused_public_baseline(kept_path);
    return write_unused_public(find_unused_public(root), kept, out) == 0 ? 0 : 1;
}

}  // namespace pvlint
