#ifndef CRAYFISH_COMMON_CONFIG_H_
#define CRAYFISH_COMMON_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace crayfish {

/// Strict numeric parsing shared by Config's typed getters, the fault,
/// workload and autoscaler property overrides, and the CLI flags. The whole
/// string must be the number (strtod syntax) and finite: "4x", "", "nan",
/// "inf" or "1e999" is InvalidArgument and `*out` is left untouched.
Status ParseNumber(const std::string& text, double* out);

/// Integer overloads. Integral doubles such as "16.0" or "1e3" are accepted;
/// a fraction ("2.5"), NaN, or a value outside the range of `*out` ("1e12"
/// for an int, "-1" for a uint64_t) is InvalidArgument.
Status ParseNumber(const std::string& text, int* out);
Status ParseNumber(const std::string& text, int64_t* out);
Status ParseNumber(const std::string& text, uint64_t* out);

/// Flat key/value experiment configuration, in the spirit of Crayfish's
/// per-experiment configuration files (Table 1 parameters such as isz, bsz,
/// ir, bd, tbb, mp plus free-form SUT settings).
///
/// Keys are dotted strings ("producer.input.rate"); values are stored as
/// strings and converted on read. Supports loading `key = value` properties
/// text (with '#' comments) and JSON objects.
class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines. Blank lines and lines starting with '#'
  /// are skipped. Later keys override earlier ones.
  static StatusOr<Config> FromProperties(const std::string& text);

  /// Parses a flat JSON object {"key": value, ...}. Nested objects are
  /// flattened with '.' separators.
  static StatusOr<Config> FromJson(const std::string& text);

  /// Reads a properties file from disk.
  static StatusOr<Config> FromFile(const std::string& path);

  void Set(const std::string& key, const std::string& value);
  void SetInt(const std::string& key, int64_t value);
  void SetDouble(const std::string& key, double value);
  void SetBool(const std::string& key, bool value);

  bool Has(const std::string& key) const;

  StatusOr<std::string> GetString(const std::string& key) const;
  StatusOr<int64_t> GetInt(const std::string& key) const;
  StatusOr<double> GetDouble(const std::string& key) const;
  StatusOr<bool> GetBool(const std::string& key) const;

  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  double GetDoubleOr(const std::string& key, double fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  /// All keys with the given prefix, e.g. Scope("flink.") -> keys without
  /// the prefix.
  Config Scope(const std::string& prefix) const;

  /// Merges `other` into this config; `other` wins on conflicts.
  void Merge(const Config& other);

  std::vector<std::string> Keys() const;
  size_t size() const { return values_.size(); }

  /// Properties-style rendering, keys sorted.
  std::string ToString() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_CONFIG_H_
