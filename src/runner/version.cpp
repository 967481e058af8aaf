#include "runner/version.h"

#include <cstdlib>
#include <sstream>

#include "runner/result_cache.h"
#include "runner/session_key.h"
#include "util/alloc_probe.h"

namespace rave::runner {

std::string BuildOptionsString() {
  std::ostringstream os;
#ifdef RAVE_TRACING_DISABLED
  os << "tracing=off";
#else
  os << "tracing=on";
#endif
  os << " alloc_probe=" << (AllocProbeEnabled() ? "on" : "off");
  os << " coalesce=" << (std::getenv("RAVE_NO_COALESCE") ? "off" : "on");
  return os.str();
}

std::string VersionString() {
  std::ostringstream os;
  os << "rave sim fingerprint: " << kSimFingerprint << '\n'
     << "result-cache blob version: " << kBlobVersion << '\n'
     << "options: " << BuildOptionsString() << '\n';
  return os.str();
}

}  // namespace rave::runner
