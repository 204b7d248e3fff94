#include "scale/workload.h"

#include <algorithm>
#include <cmath>

#include "common/fields.h"

namespace crayfish::scale {
namespace {

/// Rates never drop below this floor (events/s).
constexpr double kFloorRate = 1.0;
/// Width of one jitter window (s): the jitter factor is constant within it.
constexpr double kJitterWindowS = 1.0;

/// SplitMix64: the jitter factor is a pure hash of (seed, window index),
/// not an RNG stream — shapes consume no simulation randomness.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

StatusOr<ShapeKind> ParseShapeKind(const std::string& name) {
  if (name == "constant") return ShapeKind::kConstant;
  if (name == "flash_crowd" || name == "flash-crowd") {
    return ShapeKind::kFlashCrowd;
  }
  return Status::InvalidArgument("unknown workload shape: \"" + name + "\"");
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
    {"jitter", &WorkloadShape::jitter},
    {"seed", &WorkloadShape::seed},
    {"spike_at_s", &WorkloadShape::spike_at_s},
    {"spike_mult", &WorkloadShape::spike_mult},
    {"ramp_up_s", &WorkloadShape::ramp_up_s},
    {"hold_s", &WorkloadShape::hold_s},
    {"decay_s", &WorkloadShape::decay_s},
};

constexpr Field<WorkloadSpec> kSpecFields[] = {
    {"tenants", &WorkloadSpec::tenants},
    {"tenant_partitions", &WorkloadSpec::tenant_partitions},
    {"tenant_rate_factor", &WorkloadSpec::tenant_rate_factor},
    {"fleet_hosts", &WorkloadSpec::fleet_hosts},
};

/// One flat key: a spec field if the spec has it, else a shape field.
Status SetSpecField(const std::string& key, const FieldValue& value,
                    WorkloadSpec* spec) {
  if (HasField<WorkloadSpec>(kSpecFields, key)) {
    return SetField(kSpecFields, "workload", key, value, spec);
  }
  return SetField(kShapeFields, "workload", key, value, &spec->shape);
}

}  // namespace

double WorkloadShape::RateAt(double t) const {
  double rate = base_rate;
  if (kind == ShapeKind::kFlashCrowd) {
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
  }
  if (jitter > 0.0) {
    const uint64_t window =
        static_cast<uint64_t>(std::floor(t / kJitterWindowS));
    const uint64_t h = Mix64(seed ^ Mix64(window));
    // Uniform in [0, 1) from the top 53 bits, mapped to [1-j, 1+j].
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    rate *= 1.0 - jitter + 2.0 * jitter * u;
  }
  return std::max(rate, kFloorRate);
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
  if (jitter < 0.0 || jitter >= 1.0) {
    return Status::InvalidArgument("workload jitter must be in [0, 1)");
  }
  if (kind == ShapeKind::kFlashCrowd) {
    if (spike_mult < 1.0) {
      // A sub-1 "spike" would be a dip.
      return Status::InvalidArgument("flash_crowd spike_mult must be >= 1");
    }
    if (spike_at_s < 0.0 || ramp_up_s <= 0.0 || hold_s < 0.0 ||
        decay_s <= 0.0) {
      return Status::InvalidArgument(
          "flash_crowd needs spike_at_s >= 0, hold_s >= 0, and strictly "
          "positive ramp_up_s / decay_s");
    }
  }
  return Status::Ok();
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
  for (const auto& [key, member] : v.as_object()) {
    CRAYFISH_RETURN_IF_ERROR(SetSpecField(key, FieldValue(member), &spec));
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
  return SetSpecField(key, FieldValue(value), this);
}

}  // namespace crayfish::scale
