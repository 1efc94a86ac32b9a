// Validates an exported Chrome trace without loading it whole.
#pragma once

#include <string>

namespace perfbench {

/// Parses `path` as JSON. Returns the number of elements of the root
/// object's "traceEvents" array, or -1 when the file is missing, is not
/// valid JSON, or has no such array.
[[nodiscard]] long trace_event_count(const std::string& path);

}  // namespace perfbench
