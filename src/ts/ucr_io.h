// Reader/writer for the UCR time-series archive text format: one
// instance per line, the first field is the class label, remaining
// fields are the observations. Fields may be separated by commas,
// spaces, or tabs — mixed freely within a line — and CRLF line endings
// are accepted, so real UCR files (including Windows-edited copies)
// drop into this reproduction unchanged. Labels written as floats
// (e.g. "1.0000000e+00", as in several archive files) are rounded to
// the nearest integer (llround); that rounding is the label contract
// the binary RPMD format (ts/dataset_io.h) inherits when text files
// are packed with ucr_convert — RPMD itself stores labels as int32
// exactly. Every loaded value is finite: a trailing run of NaN fields
// is padding (how the 2018 archive ships variable-length series) and is
// trimmed, while any other NaN or infinity, and any label that is not a
// finite int32 after rounding, is a UcrFormatError. For archive-scale
// data prefer the binary format: parsing decimal text is the slow path,
// docs/DATASETS.md has the comparison.

#ifndef RPM_TS_UCR_IO_H_
#define RPM_TS_UCR_IO_H_

#include <stdexcept>
#include <string>

#include "ts/series.h"

namespace rpm::ts {

/// Error raised on malformed UCR input.
class UcrFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses UCR-format text (label + values per line). Blank lines are
/// skipped. Labels may be written as floats (e.g. "1.0000000e+00") as in
/// several archive files; they are rounded to the nearest integer.
/// Trailing NaN fields are trimmed as padding. Throws UcrFormatError,
/// naming the line, on non-numeric fields, on lines with no value left
/// after trimming, on a label that is not a finite int32 after rounding,
/// and (naming the 1-based field too) on any other non-finite value.
Dataset ParseUcr(const std::string& text);

/// Loads a UCR-format file from disk. Throws UcrFormatError if the file
/// cannot be opened or parsed.
Dataset LoadUcrFile(const std::string& path);

/// Serializes `data` in UCR format (comma-separated, label first).
std::string FormatUcr(const Dataset& data);

/// Writes `data` to `path` in UCR format. Throws UcrFormatError on IO error.
void SaveUcrFile(const Dataset& data, const std::string& path);

}  // namespace rpm::ts

#endif  // RPM_TS_UCR_IO_H_
