// Build/behaviour identity for tools.
//
// `--version` in rave_cli and run_suite prints this, so an output can be
// tied back to the simulator fingerprint, blob layout, and compiled option
// set that produced it. Debugging a "why is my cache cold" report starts
// here too: fingerprint and blob version are the two salts that invalidate
// cached results.
#pragma once

#include <string>

namespace rave::runner {

/// One-line option set: tracing, the allocation probe, and the runtime
/// coalescing knob (RAVE_NO_COALESCE). Example:
///   "tracing=on alloc_probe=on coalesce=on"
std::string BuildOptionsString();

/// Multi-line human-readable version report (fingerprint, blob version,
/// options) for `--version`.
std::string VersionString();

}  // namespace rave::runner
