#include "scale/workload.h"

#include <algorithm>
#include <cmath>

#include "common/fields.h"

namespace crayfish::scale {
namespace {

/// Indexed by ShapeKind.
constexpr const char* kKindNames[] = {"constant", "diurnal", "flash_crowd",
                                      "ramp", "replay"};

/// SplitMix64: the jitter factor is a pure hash of (seed, window index),
/// not an RNG stream — shapes consume no simulation randomness.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* ShapeKindName(ShapeKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

StatusOr<ShapeKind> ParseShapeKind(const std::string& name) {
  if (name == "flash-crowd") return ShapeKind::kFlashCrowd;
  for (size_t i = 0; i < std::size(kKindNames); ++i) {
    if (name == kKindNames[i]) return static_cast<ShapeKind>(i);
  }
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

constexpr Field<ProfilePoint> kPointFields[] = {
    {"t_s", &ProfilePoint::t_s},
    {"rate", &ProfilePoint::rate},
};

Status PointFromJson(const JsonValue& v, ProfilePoint* p) {
  if (v.is_array() && v.as_array().size() == 2) {
    CRAYFISH_RETURN_IF_ERROR(FieldValue(v.as_array()[0]).To(&p->t_s));
    return FieldValue(v.as_array()[1]).To(&p->rate);
  }
  if (v.is_object()) {
    return SetFields<ProfilePoint>(kPointFields, "profile point", v, p);
  }
  return Status::InvalidArgument(
      "profile point must be [t, rate] or {\"t_s\":..,\"rate\":..}");
}

constexpr Field<WorkloadShape> kShapeFields[] = {
    {"kind",
     [](WorkloadShape* shape, const FieldValue& v) -> Status {
       std::string name;
       CRAYFISH_RETURN_IF_ERROR(v.To(&name));
       CRAYFISH_ASSIGN_OR_RETURN(shape->kind, ParseShapeKind(name));
       return Status::Ok();
     }},
    {"base_rate", &WorkloadShape::base_rate},
    {"floor_rate", &WorkloadShape::floor_rate},
    {"jitter", &WorkloadShape::jitter},
    {"jitter_window_s", &WorkloadShape::jitter_window_s},
    {"seed", &WorkloadShape::seed},
    {"amplitude", &WorkloadShape::amplitude},
    {"period_s", &WorkloadShape::period_s},
    {"phase_s", &WorkloadShape::phase_s},
    {"spike_at_s", &WorkloadShape::spike_at_s},
    {"spike_mult", &WorkloadShape::spike_mult},
    {"ramp_up_s", &WorkloadShape::ramp_up_s},
    {"hold_s", &WorkloadShape::hold_s},
    {"decay_s", &WorkloadShape::decay_s},
    {"ramp_start_s", &WorkloadShape::ramp_start_s},
    {"ramp_duration_s", &WorkloadShape::ramp_duration_s},
    {"end_rate", &WorkloadShape::end_rate},
    // A JSON array, or its text in an override.
    {"points",
     [](WorkloadShape* shape, const FieldValue& v) -> Status {
       CRAYFISH_ASSIGN_OR_RETURN(JsonValue arr, v.AsJson());
       if (!arr.is_array()) {
         return Status::InvalidArgument("must be a JSON array");
       }
       shape->points.assign(arr.size(), ProfilePoint{});
       for (size_t i = 0; i < arr.size(); ++i) {
         CRAYFISH_RETURN_IF_ERROR(
             PointFromJson(arr.as_array()[i], &shape->points[i]));
       }
       return Status::Ok();
     }},
};

constexpr Field<WorkloadSpec> kSpecFields[] = {
    // JSON-only: the nested layout's shape object.
    {"shape",
     [](WorkloadSpec* spec, const FieldValue& v) -> Status {
       if (v.json() == nullptr) {
         return Status::InvalidArgument("set the shape's fields instead");
       }
       return SetFields<WorkloadShape>(kShapeFields, "workload shape",
                                       *v.json(), &spec->shape);
     }},
    {"tenants", &WorkloadSpec::tenants},
    {"tenant_partitions", &WorkloadSpec::tenant_partitions},
    {"tenant_rate_factor", &WorkloadSpec::tenant_rate_factor},
    {"tenant_topic_prefix", &WorkloadSpec::tenant_topic_prefix},
    {"tenant_host_prefix", &WorkloadSpec::tenant_host_prefix},
    {"fleet_hosts", &WorkloadSpec::fleet_hosts},
    {"fleet_host_prefix", &WorkloadSpec::fleet_host_prefix},
};

}  // namespace

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
  // layout (shape keys beside the spec's own keys) is accepted too, so
  // small hand-written specs don't need the extra nesting.
  const bool flat = v.Find("shape") == nullptr;
  for (const auto& [key, member] : v.as_object()) {
    if (flat && !HasField<WorkloadSpec>(kSpecFields, key)) {
      CRAYFISH_RETURN_IF_ERROR(SetField(kShapeFields, "workload shape", key,
                                        FieldValue(member), &spec.shape));
    } else {
      CRAYFISH_RETURN_IF_ERROR(
          SetField(kSpecFields, "workload", key, FieldValue(member), &spec));
    }
  }
  CRAYFISH_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

StatusOr<WorkloadSpec> WorkloadSpec::FromJsonText(const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  return FromJson(root);
}

StatusOr<WorkloadSpec> WorkloadSpec::FromFile(const std::string& path) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue root,
                            LoadJsonFile(path, "workload spec"));
  return FromJson(root);
}

Status WorkloadSpec::ApplyOverride(const std::string& key,
                                   const std::string& value) {
  enabled = true;
  if (HasField<WorkloadSpec>(kSpecFields, key)) {
    return SetField(kSpecFields, "workload", key, FieldValue(value), this);
  }
  return SetField(kShapeFields, "workload", key, FieldValue(value), &shape);
}

}  // namespace crayfish::scale
