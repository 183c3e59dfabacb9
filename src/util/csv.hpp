// PlugVolt — minimal CSV serialization.
//
// Used to persist safe/unsafe characterization maps so that an expensive
// characterization run can be replayed into a PollingModule without
// re-sweeping the grid (mirrors how the paper's kernel module consumes a
// previously measured table).
#pragma once

#include <string>
#include <vector>

namespace pv {

/// One parsed CSV document: a header row plus data rows of equal width.
struct CsvDocument {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/// Serialize rows with RFC 4180 quoting: cells containing a comma,
/// quote or newline are wrapped in double quotes with embedded quotes
/// doubled; everything else (numbers, identifiers) is emitted verbatim.
[[nodiscard]] std::string csv_write(const CsvDocument& doc);

/// Parse a CSV string produced by csv_write (quoted cells may contain
/// commas, doubled quotes and newlines).  Throws ConfigError on ragged
/// rows, an unterminated quote, or an empty document.
[[nodiscard]] CsvDocument csv_parse(const std::string& text);

}  // namespace pv
