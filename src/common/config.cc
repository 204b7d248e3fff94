#include "common/config.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.h"

namespace crayfish {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

void FlattenJson(const std::string& prefix, const JsonValue& v, Config* out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.as_object()) {
      FlattenJson(prefix.empty() ? k : prefix + "." + k, child, out);
    }
    return;
  }
  if (v.is_string()) {
    out->Set(prefix, v.as_string());
  } else if (v.is_bool()) {
    out->SetBool(prefix, v.as_bool());
  } else if (v.is_number()) {
    out->SetDouble(prefix, v.as_number());
  } else if (v.is_null()) {
    out->Set(prefix, "");
  }
  // Arrays are rendered as their JSON text so callers can re-parse.
  if (v.is_array()) out->Set(prefix, v.Dump());
}

template <typename Int>
Status ParseInteger(const std::string& text, Int* out) {
  const char* last = text.data() + text.size();
  Int v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ptr == last && ec == std::errc()) {
    *out = v;
    return Status::Ok();
  }
  if (ptr == last && ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("integer out of range: " + text);
  }
  // Not a plain decimal integer: accept an integral double ("16.0", "1e3").
  double d = 0.0;
  CRAYFISH_RETURN_IF_ERROR(ParseNumber(text, &d));
  if (d != std::trunc(d)) {  // also true for NaN
    return Status::InvalidArgument("not an integer: " + text);
  }
  // max() + 1 is exact in double for every Int used here (2^31, 2^63, 2^64).
  constexpr double kLo = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double kHi =
      static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
  if (d < kLo || d >= kHi) {
    return Status::InvalidArgument("integer out of range: " + text);
  }
  *out = static_cast<Int>(d);
  return Status::Ok();
}

}  // namespace

Status ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: " + text);
  }
  *out = d;
  return Status::Ok();
}

Status ParseNumber(const std::string& text, int* out) {
  return ParseInteger(text, out);
}

Status ParseNumber(const std::string& text, int64_t* out) {
  return ParseInteger(text, out);
}

Status ParseNumber(const std::string& text, uint64_t* out) {
  return ParseInteger(text, out);
}

StatusOr<Config> Config::FromProperties(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("config line " + std::to_string(lineno) +
                                     " has no '='");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("config line " + std::to_string(lineno) +
                                     " has empty key");
    }
    cfg.Set(key, value);
  }
  return cfg;
}

StatusOr<Config> Config::FromJson(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, JsonValue::Parse(text));
  if (!v.is_object()) {
    return Status::InvalidArgument("config JSON must be an object");
  }
  Config cfg;
  FlattenJson("", v, &cfg);
  return cfg;
}

StatusOr<Config> Config::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromProperties(buf.str());
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}

void Config::SetDouble(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  values_[key] = buf;
}

void Config::SetBool(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

StatusOr<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("config key: " + key);
  return it->second;
}

StatusOr<int64_t> Config::GetInt(const std::string& key) const {
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  int64_t v = 0;
  const Status st = ParseNumber(s, &v);
  if (!st.ok()) {
    return Status::InvalidArgument("config key " + key + ": " + st.message());
  }
  return v;
}

StatusOr<double> Config::GetDouble(const std::string& key) const {
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  double v = 0.0;
  const Status st = ParseNumber(s, &v);
  if (!st.ok()) {
    return Status::InvalidArgument("config key " + key + ": " + st.message());
  }
  return v;
}

StatusOr<bool> Config::GetBool(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("config key: " + key);
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  return Status::InvalidArgument("config key " + key + " is not a bool: " + s);
}

std::string Config::GetStringOr(const std::string& key,
                                const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Config::GetIntOr(const std::string& key, int64_t fallback) const {
  auto v = GetInt(key);
  return v.ok() ? *v : fallback;
}

double Config::GetDoubleOr(const std::string& key, double fallback) const {
  auto v = GetDouble(key);
  return v.ok() ? *v : fallback;
}

bool Config::GetBoolOr(const std::string& key, bool fallback) const {
  auto v = GetBool(key);
  return v.ok() ? *v : fallback;
}

Config Config::Scope(const std::string& prefix) const {
  Config out;
  for (const auto& [k, v] : values_) {
    if (k.rfind(prefix, 0) == 0) {
      out.Set(k.substr(prefix.size()), v);
    }
  }
  return out;
}

void Config::Merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [k, v] : values_) keys.push_back(k);
  return keys;
}

std::string Config::ToString() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

}  // namespace crayfish
