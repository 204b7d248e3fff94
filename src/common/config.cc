#include "common/config.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

namespace crayfish {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
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
    // A double holds every integer below 2^53 exactly; at or past it the
    // value may already be rounded (a JSON 9007199254740993 reads as
    // ...992), so it is refused rather than changed. Plain decimal text
    // never gets here: ParseNumber converts it exactly.
    constexpr double kExact = 9007199254740992.0;  // 2^53
    if (std::fabs(d) >= kExact) {
      return Status::InvalidArgument(
          "integer not exact as a double (magnitude 2^53 or more): " +
          Render(d));
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

StatusOr<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("config key: " + key);
  return it->second;
}

}  // namespace crayfish
