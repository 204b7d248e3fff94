#include "common/config.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

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

std::string Render(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace

template <typename Num>
Status ConvertNumber(double d, Num* out) {
  // "nan", "inf" and overflowing literals such as "1e999" parse, but no
  // parameter means anything by them.
  if (!std::isfinite(d)) {
    return Status::InvalidArgument("not a finite number: " + Render(d));
  }
  if constexpr (std::is_integral_v<Num>) {
    if (d != std::trunc(d)) {
      return Status::InvalidArgument("not an integer: " + Render(d));
    }
    // max() + 1 is exact in double for every Num used here (2^31, 2^63,
    // 2^64).
    constexpr double kLo = static_cast<double>(std::numeric_limits<Num>::min());
    constexpr double kHi =
        static_cast<double>(std::numeric_limits<Num>::max()) + 1.0;
    if (d < kLo || d >= kHi) {
      return Status::InvalidArgument("integer out of range: " + Render(d));
    }
  }
  *out = static_cast<Num>(d);
  return Status::Ok();
}

template <typename Num>
Status ParseNumber(const std::string& text, Num* out) {
  if constexpr (std::is_integral_v<Num>) {
    // A plain decimal integer converts exactly, even past 2^53.
    const char* last = text.data() + text.size();
    Num v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ptr == last && ec == std::errc()) {
      *out = v;
      return Status::Ok();
    }
    if (ptr == last && ec == std::errc::result_out_of_range) {
      return Status::InvalidArgument("integer out of range: " + text);
    }
  }
  char* end = nullptr;
  const double d = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: " + text);
  }
  return ConvertNumber(d, out);
}

template Status ConvertNumber(double, double*);
template Status ConvertNumber(double, int*);
template Status ConvertNumber(double, int64_t*);
template Status ConvertNumber(double, uint64_t*);
template Status ParseNumber(const std::string&, double*);
template Status ParseNumber(const std::string&, int*);
template Status ParseNumber(const std::string&, int64_t*);
template Status ParseNumber(const std::string&, uint64_t*);

Status ParseBool(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes") {
    *out = true;
  } else if (text == "false" || text == "0" || text == "no") {
    *out = false;
  } else {
    return Status::InvalidArgument("not a bool: " + text);
  }
  return Status::Ok();
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

StatusOr<std::string> ReadTextFile(const std::string& path,
                                   std::string_view what) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot read " + std::string(what) + ": " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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
  CRAYFISH_ASSIGN_OR_RETURN(std::string text,
                            ReadTextFile(path, "config file"));
  return FromProperties(text);
}

void Config::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Config::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}

void Config::SetDouble(const std::string& key, double value) {
  values_[key] = Render(value);
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
  CRAYFISH_ASSIGN_OR_RETURN(std::string s, GetString(key));
  bool v = false;
  const Status st = ParseBool(s, &v);
  if (!st.ok()) {
    return Status::InvalidArgument("config key " + key + ": " + st.message());
  }
  return v;
}

int64_t Config::GetIntOr(const std::string& key, int64_t fallback) const {
  auto v = GetInt(key);
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

std::string Config::ToString() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

}  // namespace crayfish
