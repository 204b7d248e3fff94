#ifndef CRAYFISH_COMMON_CONFIG_H_
#define CRAYFISH_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace crayfish {

/// The checks every config number passes, whichever source it came from
/// (a JSON spec file or the text of a `key = value` line): `d` must be
/// finite, and for an integer `*out` integral ("16.0" is 16, "2.5" is not
/// an integer), inside its range ("1e12" for an int, -1 for a uint64_t)
/// and below 2^53 in magnitude, where a double may already have rounded
/// it. On error `*out` is left untouched. This and ParseNumber are
/// defined for double, int, int64_t and uint64_t.
template <typename Num>
Status ConvertNumber(double d, Num* out);

/// Strict numeric parsing shared by every `key = value` config field and
/// the CLI flags: the whole string must be the number (strtod syntax; plain
/// decimal integers convert exactly), and the result goes through
/// ConvertNumber. "4x", "", "nan", "inf" or "1e999" is InvalidArgument.
template <typename Num>
Status ParseNumber(const std::string& text, Num* out);

/// The one spelling of a bool in config text: true/1/yes or false/0/no.
Status ParseBool(const std::string& text, bool* out);

/// The whole file at `path`, or IoError "cannot read <what>: <path>". Every
/// properties and JSON spec file is read through this.
StatusOr<std::string> ReadTextFile(const std::string& path,
                                   std::string_view what);

/// Flat key/value experiment configuration, in the spirit of Crayfish's
/// per-experiment configuration files (Table 1 parameters such as isz, bsz,
/// ir, bd, tbb, mp plus free-form SUT settings).
///
/// Keys are dotted strings ("producer.input.rate"); values are stored as
/// strings. Supports loading `key = value` properties text (with '#'
/// comments). Experiment and engine settings are converted where they are
/// applied, through the field tables of common/fields.h.
class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines. Blank lines and lines starting with '#'
  /// are skipped. Later keys override earlier ones.
  static StatusOr<Config> FromProperties(const std::string& text);

  /// Reads a properties file from disk.
  static StatusOr<Config> FromFile(const std::string& path);

  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  StatusOr<std::string> GetString(const std::string& key) const;

  /// Every key and value, keys sorted.
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_CONFIG_H_
