// Build/behaviour identity for tools and the history ledger.
//
// `--version` in rave_cli and run_suite prints this; the regression
// sentinel stores the same string in every history record so a baseline
// from a different simulator fingerprint, blob layout, or compiled option
// set is recognized as incompatible instead of mis-diffed. Debugging a
// "why is my cache cold" report starts here too: fingerprint and blob
// version are the two salts that invalidate cached results.
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
