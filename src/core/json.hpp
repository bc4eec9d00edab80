// JSON export of flow results, for downstream tooling (dashboards, report
// diffs, CI trend tracking), written with the shared common/json writer.
#pragma once

#include <string>

#include "common/strings.hpp"
#include "core/flow.hpp"

namespace tauhls::core {

/// Serialize a flow result: design summary, latency comparison (best/avg per
/// P/worst + enhancement), area rows when synthesized, signal-optimization
/// stats and controller inventory.
std::string toJson(const FlowResult& result);

/// The JSON string escaper of common/strings.hpp, also callable as
/// core::jsonEscape.
using tauhls::jsonEscape;

}  // namespace tauhls::core
