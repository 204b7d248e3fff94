#include "scale/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "common/config.h"
#include "common/json.h"

namespace crayfish::scale {
namespace {

/// SplitMix64: the jitter factor is a pure hash of (seed, window index),
/// not an RNG stream — shapes consume no simulation randomness.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StatusOr<ProfilePoint> PointFromJson(const JsonValue& v) {
  ProfilePoint p;
  if (v.is_array() && v.as_array().size() == 2 &&
      v.as_array()[0].is_number() && v.as_array()[1].is_number()) {
    p.t_s = v.as_array()[0].as_number();
    p.rate = v.as_array()[1].as_number();
    return p;
  }
  if (v.is_object()) {
    p.t_s = v.GetNumberOr("t_s", 0.0);
    p.rate = v.GetNumberOr("rate", 0.0);
    return p;
  }
  return Status::InvalidArgument(
      "profile point must be [t, rate] or {\"t_s\":..,\"rate\":..}");
}

Status PointsFromJsonArray(const JsonValue& arr,
                           std::vector<ProfilePoint>* out) {
  if (!arr.is_array()) {
    return Status::InvalidArgument("\"points\" must be a JSON array");
  }
  out->clear();
  for (const JsonValue& v : arr.as_array()) {
    CRAYFISH_ASSIGN_OR_RETURN(ProfilePoint p, PointFromJson(v));
    out->push_back(p);
  }
  return Status::Ok();
}

}  // namespace

const char* ShapeKindName(ShapeKind kind) {
  switch (kind) {
    case ShapeKind::kConstant:
      return "constant";
    case ShapeKind::kDiurnal:
      return "diurnal";
    case ShapeKind::kFlashCrowd:
      return "flash_crowd";
    case ShapeKind::kRamp:
      return "ramp";
    case ShapeKind::kReplay:
      return "replay";
  }
  return "unknown";
}

StatusOr<ShapeKind> ParseShapeKind(const std::string& name) {
  if (name == "constant") return ShapeKind::kConstant;
  if (name == "diurnal") return ShapeKind::kDiurnal;
  if (name == "flash_crowd" || name == "flash-crowd") {
    return ShapeKind::kFlashCrowd;
  }
  if (name == "ramp") return ShapeKind::kRamp;
  if (name == "replay") return ShapeKind::kReplay;
  return Status::InvalidArgument("unknown workload shape: \"" + name + "\"");
}

double WorkloadShape::RateAt(double t) const {
  double rate = base_rate;
  switch (kind) {
    case ShapeKind::kConstant:
      break;
    case ShapeKind::kDiurnal: {
      const double angle = 2.0 * M_PI * (t + phase_s) / period_s;
      rate = base_rate * (1.0 + amplitude * std::sin(angle));
      break;
    }
    case ShapeKind::kFlashCrowd: {
      const double peak = base_rate * spike_mult;
      if (t < spike_at_s) {
        rate = base_rate;
      } else if (t < spike_at_s + ramp_up_s) {
        const double f = (t - spike_at_s) / ramp_up_s;
        rate = base_rate + f * (peak - base_rate);
      } else if (t < spike_at_s + ramp_up_s + hold_s) {
        rate = peak;
      } else if (t < spike_at_s + ramp_up_s + hold_s + decay_s) {
        const double f = (t - spike_at_s - ramp_up_s - hold_s) / decay_s;
        rate = peak - f * (peak - base_rate);
      } else {
        rate = base_rate;
      }
      break;
    }
    case ShapeKind::kRamp: {
      if (t <= ramp_start_s) {
        rate = base_rate;
      } else if (t >= ramp_start_s + ramp_duration_s) {
        rate = end_rate;
      } else {
        const double f = (t - ramp_start_s) / ramp_duration_s;
        rate = base_rate + f * (end_rate - base_rate);
      }
      break;
    }
    case ShapeKind::kReplay: {
      if (points.empty()) break;
      if (t <= points.front().t_s) {
        rate = points.front().rate;
      } else if (t >= points.back().t_s) {
        rate = points.back().rate;
      } else {
        for (size_t i = 1; i < points.size(); ++i) {
          if (t <= points[i].t_s) {
            const ProfilePoint& a = points[i - 1];
            const ProfilePoint& b = points[i];
            const double span = b.t_s - a.t_s;
            const double f = span > 0.0 ? (t - a.t_s) / span : 1.0;
            rate = a.rate + f * (b.rate - a.rate);
            break;
          }
        }
      }
      break;
    }
  }
  if (jitter > 0.0 && jitter_window_s > 0.0) {
    const uint64_t window =
        static_cast<uint64_t>(std::floor(t / jitter_window_s));
    const uint64_t h = Mix64(seed ^ Mix64(window));
    // Uniform in [0, 1) from the top 53 bits, mapped to [1-j, 1+j].
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    rate *= 1.0 - jitter + 2.0 * jitter * u;
  }
  return std::max(rate, floor_rate);
}

double WorkloadShape::IntegrateRate(double t0, double t1, int steps) const {
  if (t1 <= t0 || steps <= 0) return 0.0;
  const double h = (t1 - t0) / static_cast<double>(steps);
  double sum = 0.5 * (RateAt(t0) + RateAt(t1));
  for (int i = 1; i < steps; ++i) {
    sum += RateAt(t0 + h * static_cast<double>(i));
  }
  return sum * h;
}

Status WorkloadShape::Validate() const {
  if (base_rate <= 0.0) {
    return Status::InvalidArgument("workload base_rate must be > 0");
  }
  if (floor_rate <= 0.0) {
    return Status::InvalidArgument("workload floor_rate must be > 0");
  }
  if (jitter < 0.0 || jitter >= 1.0) {
    return Status::InvalidArgument("workload jitter must be in [0, 1)");
  }
  if (jitter > 0.0 && jitter_window_s <= 0.0) {
    return Status::InvalidArgument("workload jitter_window_s must be > 0");
  }
  switch (kind) {
    case ShapeKind::kConstant:
      break;
    case ShapeKind::kDiurnal:
      if (amplitude < 0.0 || amplitude > 1.0) {
        return Status::InvalidArgument("diurnal amplitude must be in [0, 1]");
      }
      if (period_s <= 0.0) {
        return Status::InvalidArgument("diurnal period_s must be > 0");
      }
      break;
    case ShapeKind::kFlashCrowd:
      if (spike_mult < 1.0) {
        // A sub-1 "spike" would be a dip; express dips as replay profiles.
        return Status::InvalidArgument("flash_crowd spike_mult must be >= 1");
      }
      if (spike_at_s < 0.0 || ramp_up_s <= 0.0 || hold_s < 0.0 ||
          decay_s <= 0.0) {
        return Status::InvalidArgument(
            "flash_crowd needs spike_at_s >= 0, hold_s >= 0, and strictly "
            "positive ramp_up_s / decay_s");
      }
      break;
    case ShapeKind::kRamp:
      if (end_rate <= 0.0) {
        return Status::InvalidArgument("ramp end_rate must be > 0");
      }
      if (ramp_start_s < 0.0 || ramp_duration_s <= 0.0) {
        return Status::InvalidArgument(
            "ramp needs ramp_start_s >= 0 and ramp_duration_s > 0");
      }
      break;
    case ShapeKind::kReplay: {
      if (points.empty()) {
        return Status::InvalidArgument("replay shape needs profile points");
      }
      for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].rate < 0.0) {
          return Status::InvalidArgument("replay rates must be >= 0");
        }
        if (i > 0 && points[i].t_s < points[i - 1].t_s) {
          return Status::InvalidArgument(
              "replay points must be sorted by t_s");
        }
      }
      break;
    }
  }
  return Status::Ok();
}

namespace {

/// A workload spec's own (non-shape) JSON keys.
constexpr std::string_view kSpecKeys[] = {
    "tenants", "tenant_partitions", "tenant_rate_factor",
    "tenant_topic_prefix", "tenant_host_prefix", "fleet_hosts",
    "fleet_host_prefix"};

}  // namespace

StatusOr<WorkloadShape> WorkloadShape::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("workload shape must be a JSON object");
  }
  CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(
      v,
      {"kind", "base_rate", "floor_rate", "jitter", "jitter_window_s", "seed",
       "amplitude", "period_s", "phase_s", "spike_at_s", "spike_mult",
       "ramp_up_s", "hold_s", "decay_s", "ramp_start_s", "ramp_duration_s",
       "end_rate", "points"},
      "workload shape"));
  WorkloadShape shape;
  const std::string kind_name = v.GetStringOr("kind", "constant");
  CRAYFISH_ASSIGN_OR_RETURN(shape.kind, ParseShapeKind(kind_name));
  shape.base_rate = v.GetNumberOr("base_rate", shape.base_rate);
  shape.floor_rate = v.GetNumberOr("floor_rate", shape.floor_rate);
  shape.jitter = v.GetNumberOr("jitter", shape.jitter);
  shape.jitter_window_s =
      v.GetNumberOr("jitter_window_s", shape.jitter_window_s);
  shape.seed = static_cast<uint64_t>(
      v.GetIntOr("seed", static_cast<int64_t>(shape.seed)));
  shape.amplitude = v.GetNumberOr("amplitude", shape.amplitude);
  shape.period_s = v.GetNumberOr("period_s", shape.period_s);
  shape.phase_s = v.GetNumberOr("phase_s", shape.phase_s);
  shape.spike_at_s = v.GetNumberOr("spike_at_s", shape.spike_at_s);
  shape.spike_mult = v.GetNumberOr("spike_mult", shape.spike_mult);
  shape.ramp_up_s = v.GetNumberOr("ramp_up_s", shape.ramp_up_s);
  shape.hold_s = v.GetNumberOr("hold_s", shape.hold_s);
  shape.decay_s = v.GetNumberOr("decay_s", shape.decay_s);
  shape.ramp_start_s = v.GetNumberOr("ramp_start_s", shape.ramp_start_s);
  shape.ramp_duration_s =
      v.GetNumberOr("ramp_duration_s", shape.ramp_duration_s);
  shape.end_rate = v.GetNumberOr("end_rate", shape.end_rate);
  if (const JsonValue* points = v.Find("points")) {
    CRAYFISH_RETURN_IF_ERROR(PointsFromJsonArray(*points, &shape.points));
  }
  CRAYFISH_RETURN_IF_ERROR(shape.Validate());
  return shape;
}

Status WorkloadSpec::Validate() const {
  CRAYFISH_RETURN_IF_ERROR(shape.Validate());
  if (tenants < 0) {
    return Status::InvalidArgument("workload tenants must be >= 0");
  }
  if (tenants > 0 && tenant_partitions <= 0) {
    return Status::InvalidArgument("workload tenant_partitions must be > 0");
  }
  if (tenants > 0 && tenant_rate_factor <= 0.0) {
    return Status::InvalidArgument("workload tenant_rate_factor must be > 0");
  }
  if (fleet_hosts < 0) {
    return Status::InvalidArgument("workload fleet_hosts must be >= 0");
  }
  return Status::Ok();
}

StatusOr<WorkloadSpec> WorkloadSpec::FromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("workload spec must be a JSON object");
  }
  WorkloadSpec spec;
  spec.enabled = true;
  // Shape fields live in a nested "shape" object when present; a flat
  // layout (shape keys at the top level) is accepted too, so small
  // hand-written specs don't need the extra nesting. Either way, what is
  // left once the spec's own keys are set aside must be shape keys (flat)
  // or the "shape" object alone (nested).
  JsonValue rest = v;
  for (const std::string_view key : kSpecKeys) {
    rest.as_object().erase(std::string(key));
  }
  const JsonValue* shape = v.Find("shape");
  if (shape != nullptr) {
    CRAYFISH_RETURN_IF_ERROR(RejectUnknownFields(rest, {"shape"}, "workload"));
  }
  CRAYFISH_ASSIGN_OR_RETURN(
      spec.shape, WorkloadShape::FromJson(shape != nullptr ? *shape : rest));
  spec.tenants = static_cast<int>(v.GetIntOr("tenants", spec.tenants));
  spec.tenant_partitions = static_cast<int>(
      v.GetIntOr("tenant_partitions", spec.tenant_partitions));
  spec.tenant_rate_factor =
      v.GetNumberOr("tenant_rate_factor", spec.tenant_rate_factor);
  spec.tenant_topic_prefix =
      v.GetStringOr("tenant_topic_prefix", spec.tenant_topic_prefix);
  spec.tenant_host_prefix =
      v.GetStringOr("tenant_host_prefix", spec.tenant_host_prefix);
  spec.fleet_hosts =
      static_cast<int>(v.GetIntOr("fleet_hosts", spec.fleet_hosts));
  spec.fleet_host_prefix =
      v.GetStringOr("fleet_host_prefix", spec.fleet_host_prefix);
  CRAYFISH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<WorkloadSpec> WorkloadSpec::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  return FromJson(root);
}

StatusOr<WorkloadSpec> WorkloadSpec::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read workload spec: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return FromJsonText(text.str());
}

Status WorkloadSpec::ApplyOverride(const std::string& key,
                                   const std::string& value) {
  enabled = true;
  if (key == "kind") {
    CRAYFISH_ASSIGN_OR_RETURN(shape.kind, ParseShapeKind(value));
    return Status::Ok();
  }
  if (key == "base_rate") return ParseNumber(value, &shape.base_rate);
  if (key == "floor_rate") return ParseNumber(value, &shape.floor_rate);
  if (key == "jitter") return ParseNumber(value, &shape.jitter);
  if (key == "jitter_window_s") {
    return ParseNumber(value, &shape.jitter_window_s);
  }
  if (key == "seed") return ParseNumber(value, &shape.seed);
  if (key == "amplitude") return ParseNumber(value, &shape.amplitude);
  if (key == "period_s") return ParseNumber(value, &shape.period_s);
  if (key == "phase_s") return ParseNumber(value, &shape.phase_s);
  if (key == "spike_at_s") return ParseNumber(value, &shape.spike_at_s);
  if (key == "spike_mult") return ParseNumber(value, &shape.spike_mult);
  if (key == "ramp_up_s") return ParseNumber(value, &shape.ramp_up_s);
  if (key == "hold_s") return ParseNumber(value, &shape.hold_s);
  if (key == "decay_s") return ParseNumber(value, &shape.decay_s);
  if (key == "ramp_start_s") return ParseNumber(value, &shape.ramp_start_s);
  if (key == "ramp_duration_s") {
    return ParseNumber(value, &shape.ramp_duration_s);
  }
  if (key == "end_rate") return ParseNumber(value, &shape.end_rate);
  if (key == "points") {
    CRAYFISH_ASSIGN_OR_RETURN(JsonValue arr, JsonValue::Parse(value));
    return PointsFromJsonArray(arr, &shape.points);
  }
  if (key == "tenants") return ParseNumber(value, &tenants);
  if (key == "tenant_partitions") return ParseNumber(value, &tenant_partitions);
  if (key == "tenant_rate_factor") {
    return ParseNumber(value, &tenant_rate_factor);
  }
  if (key == "tenant_topic_prefix") {
    tenant_topic_prefix = value;
    return Status::Ok();
  }
  if (key == "tenant_host_prefix") {
    tenant_host_prefix = value;
    return Status::Ok();
  }
  if (key == "fleet_hosts") return ParseNumber(value, &fleet_hosts);
  if (key == "fleet_host_prefix") {
    fleet_host_prefix = value;
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown workload key: " + key);
}

}  // namespace crayfish::scale
