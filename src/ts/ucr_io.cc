#include "ts/ucr_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace rpm::ts {
namespace {

// Splits a line on commas and/or whitespace into numeric fields.
std::vector<double> ParseFields(const std::string& line, std::size_t line_no) {
  std::vector<double> fields;
  const char* p = line.c_str();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == ',' || *p == '\r')) ++p;
    if (p >= end) break;
    char* after = nullptr;
    const double v = std::strtod(p, &after);
    if (after == p) {
      throw UcrFormatError("line " + std::to_string(line_no) +
                           ": non-numeric field near '" +
                           std::string(p, std::min<std::size_t>(8, end - p)) + "'");
    }
    fields.push_back(v);
    p = after;
  }
  return fields;
}

}  // namespace

Dataset ParseUcr(const std::string& text) {
  Dataset data;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r\n,") == std::string::npos) continue;
    std::vector<double> fields = ParseFields(line, line_no);
    // A trailing run of NaN values is padding (the 2018 archive pads
    // variable-length series that way); the label is never trimmed.
    while (fields.size() > 1 && std::isnan(fields.back())) fields.pop_back();
    if (fields.size() < 2) {
      throw UcrFormatError("line " + std::to_string(line_no) +
                           ": expected a label plus at least one value");
    }
    // std::round rounds halves away from zero like llround, but is
    // defined on any double, so the range check comes before any cast
    // (llround's result on a huge value is unspecified). The negated
    // test also rejects NaN.
    const double label = std::round(fields.front());
    if (!(label >= std::numeric_limits<std::int32_t>::min() &&
          label <= std::numeric_limits<std::int32_t>::max())) {
      std::ostringstream what;
      what << "line " << line_no << ": label " << fields.front()
           << " is not a finite int32 after rounding";
      throw UcrFormatError(what.str());
    }
    for (std::size_t f = 1; f < fields.size(); ++f) {
      if (!std::isfinite(fields[f])) {
        std::ostringstream what;
        what << "line " << line_no << ", field " << f + 1
             << ": non-finite value " << fields[f]
             << " (only trailing NaN padding is allowed)";
        throw UcrFormatError(what.str());
      }
    }
    LabeledSeries inst;
    inst.label = static_cast<int>(label);
    inst.values.assign(fields.begin() + 1, fields.end());
    data.Add(std::move(inst));
  }
  return data;
}

Dataset LoadUcrFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UcrFormatError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseUcr(buf.str());
}

std::string FormatUcr(const Dataset& data) {
  std::ostringstream out;
  out.precision(10);
  for (const auto& inst : data) {
    out << inst.label;
    for (double v : inst.values) out << ',' << v;
    out << '\n';
  }
  return out.str();
}

void SaveUcrFile(const Dataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw UcrFormatError("cannot open '" + path + "' for writing");
  out << FormatUcr(data);
  if (!out) throw UcrFormatError("write failed for '" + path + "'");
}

}  // namespace rpm::ts
