#include "util/csv.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pv {
namespace {

// RFC 4180: a cell containing a comma, quote, CR or LF is wrapped in
// double quotes, with embedded quotes doubled.  Clean cells (the vast
// majority: numbers, identifiers) are emitted verbatim.
void emit_cell(const std::string& cell, std::ostringstream& os) {
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        os << cell;
        return;
    }
    os << '"';
    for (char ch : cell) {
        if (ch == '"') os << '"';
        os << ch;
    }
    os << '"';
}

void emit_row(const std::vector<std::string>& row, std::ostringstream& os) {
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (i) os << ',';
        emit_cell(row[i], os);
    }
    os << '\n';
}

}  // namespace

std::string csv_write(const CsvDocument& doc) {
    if (doc.header.empty()) throw ConfigError("csv document needs a header");
    std::ostringstream os;
    emit_row(doc.header, os);
    for (const auto& row : doc.rows) {
        if (row.size() != doc.header.size())
            throw ConfigError("csv row width differs from header");
        emit_row(row, os);
    }
    return os.str();
}

CsvDocument csv_parse(const std::string& text) {
    // Character-level scan: quoted cells may span commas, doubled
    // quotes and even newlines, so parsing cannot be line-based.
    CsvDocument doc;
    std::vector<std::string> row;
    std::string cell;
    bool in_quotes = false;
    bool row_has_data = false;  // distinguishes "" (empty line) from ",\n"
    bool seen_header = false;

    auto end_cell = [&] {
        row.push_back(std::move(cell));
        cell.clear();
    };
    auto end_row = [&] {
        if (!row_has_data && row.empty()) return;  // skip blank lines
        end_cell();
        if (!seen_header) {
            doc.header = std::move(row);
            seen_header = true;
        } else {
            if (row.size() != doc.header.size())
                throw ConfigError("csv row width differs from header");
            doc.rows.push_back(std::move(row));
        }
        row.clear();
        row_has_data = false;
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char ch = text[i];
        if (in_quotes) {
            if (ch == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cell.push_back('"');  // doubled quote -> literal quote
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cell.push_back(ch);
            }
            continue;
        }
        switch (ch) {
            case '"':
                if (!cell.empty())
                    throw ConfigError("csv quote opened mid-cell");
                in_quotes = true;
                row_has_data = true;
                break;
            case ',':
                end_cell();
                row_has_data = true;
                break;
            case '\r':
                break;  // tolerate CRLF
            case '\n':
                end_row();
                break;
            default:
                cell.push_back(ch);
                row_has_data = true;
        }
    }
    if (in_quotes) throw ConfigError("csv ends inside a quoted cell");
    end_row();  // final row may lack a trailing newline

    if (!seen_header) throw ConfigError("csv document is empty");
    return doc;
}

}  // namespace pv
