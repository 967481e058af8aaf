// Minimal typed command-line flag parser for the example/CLI binaries:
// `--key=value` and `--key value` forms, typed getters with defaults, and
// positional-argument access. No registration step — tools query what they
// need and can print the set of recognized keys themselves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rave {

/// Parsed argv. Unknown flags are retained (queryable), so tools can reject
/// typos via `unknown_keys`.
class Flags {
 public:
  /// Parses argv (excluding argv[0]). Throws std::invalid_argument on a
  /// malformed token (e.g. `--` with no key).
  Flags(int argc, const char* const* argv);

  bool Has(const std::string& key) const;

  /// Typed getters; return `fallback` when the flag is absent. Throw
  /// std::invalid_argument when present but unparsable.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  /// Strict integer parse: trailing garbage ("5x", "5 ") and values that
  /// overflow int64 are rejected with the flag named in the error.
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  /// GetInt plus a closed range check — the spelling for flags where only
  /// some values make sense (`--jobs` can't be negative, `--runner-sessions`
  /// can't be zero). The error names the flag and the accepted range.
  int64_t GetInt(const std::string& key, int64_t fallback, int64_t min,
                 int64_t max) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys present on the command line but not in `known` — for typo checks.
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rave
