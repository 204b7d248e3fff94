#include "sim/network.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace crayfish::sim {

double PropagationSeconds(const LinkSpec& spec, const LinkDegradation& deg) {
  return spec.latency_s * deg.latency_mult;
}

double TransmitSeconds(const LinkSpec& spec, const LinkDegradation& deg,
                       uint64_t bytes) {
  return static_cast<double>(bytes) /
         (spec.bandwidth_bytes_per_s * deg.bandwidth_mult);
}

Link::Link(Simulation* sim, LinkSpec spec) : sim_(sim), spec_(spec) {
  CRAYFISH_CHECK_GE(spec.latency_s, 0.0);
  CRAYFISH_CHECK_GT(spec.bandwidth_bytes_per_s, 0.0);
}

void Link::SetDegradation(LinkDegradation deg) {
  CRAYFISH_CHECK_GE(deg.latency_mult, 0.0);
  // An injected multiplier must keep effective bandwidth strictly positive;
  // a zero/negative value would make transfer times infinite or run time
  // backwards instead of modelling an outage (use `drop` for that).
  CRAYFISH_CHECK_GT(deg.bandwidth_mult, 0.0);
  degradation_ = deg;
}

bool Link::Transfer(uint64_t bytes, InlineAction on_delivered) {
  if (degradation_.drop) {
    // Partitioned: the transfer vanishes. Senders find out via timeouts.
    ++dropped_transfers_;
    return false;
  }
  const SimTime now = sim_->Now();
  const double tx_time = TransmitSeconds(spec_, degradation_, bytes);
  const SimTime tx_start = std::max(now, tx_free_at_);
  tx_free_at_ = tx_start + tx_time;
  bytes_sent_ += bytes;
  sim_->ScheduleAt(tx_free_at_ + PropagationSeconds(spec_, degradation_),
                   std::move(on_delivered));
  return true;
}

Network::Network(Simulation* sim) : sim_(sim) {}

crayfish::Status Network::AddHost(Host host) {
  const HostId id{static_cast<uint32_t>(hosts_.size())};
  if (!host_ids_.try_emplace(host.name, id).second) {
    return crayfish::Status::AlreadyExists("host: " + host.name);
  }
  hosts_.push_back(std::move(host));
  return crayfish::Status::Ok();
}

bool Network::HasHost(const std::string& name) const {
  return host_ids_.count(name) > 0;
}

crayfish::StatusOr<Host> Network::GetHost(const std::string& name) const {
  CRAYFISH_ASSIGN_OR_RETURN(HostId id, FindHost(name));
  return hosts_[static_cast<size_t>(id)];
}

crayfish::StatusOr<HostId> Network::FindHost(const std::string& name) const {
  auto it = host_ids_.find(name);
  if (it == host_ids_.end()) return crayfish::Status::NotFound("host: " + name);
  return it->second;
}

LinkSpec Network::SpecFor(const std::string& from,
                          const std::string& to) const {
  auto ov = spec_overrides_.find(std::make_pair(from, to));
  return ov != spec_overrides_.end() ? ov->second : default_spec_;
}

void Network::SetLinkSpec(const std::string& from, const std::string& to,
                          LinkSpec spec) {
  spec_overrides_[std::make_pair(from, to)] = spec;
  auto src = host_ids_.find(from);
  auto dst = host_ids_.find(to);
  if (src == host_ids_.end() || dst == host_ids_.end()) return;
  const auto s = static_cast<size_t>(src->second);
  const auto d = static_cast<size_t>(dst->second);
  if (s < links_.size() && d < links_[s].size()) links_[s][d].reset();
}

Link* Network::GetOrCreateLink(HostId from, HostId to) {
  const auto s = static_cast<size_t>(from);
  const auto d = static_cast<size_t>(to);
  if (s >= links_.size()) links_.resize(s + 1);
  std::vector<std::unique_ptr<Link>>& out = links_[s];
  if (d >= out.size()) out.resize(d + 1);
  if (out[d] != nullptr) return out[d].get();
  // A Link's initial state is a pure function of (spec, degradation
  // rules), never of creation time, so materializing it at first use
  // keeps every export byte-identical.
  const std::string& src_name = hosts_[s].name;
  const std::string& dst_name = hosts_[d].name;
  out[d] = std::make_unique<Link>(sim_, SpecFor(src_name, dst_name));
  out[d]->SetDegradation(DegradationFor(src_name, dst_name));
  return out[d].get();
}

LinkDegradation Network::DegradationFor(const std::string& from,
                                        const std::string& to) const {
  // Most specific match wins; "" is the wildcard.
  const std::pair<std::string, std::string> candidates[] = {
      {from, to}, {from, ""}, {"", to}, {"", ""}};
  for (const auto& key : candidates) {
    auto it = degradations_.find(key);
    if (it != degradations_.end()) return it->second;
  }
  return LinkDegradation{};
}

void Network::SetDegradation(const std::string& from, const std::string& to,
                             LinkDegradation deg) {
  degradations_[std::make_pair(from, to)] = deg;
  // Re-resolve every live link so rule precedence stays consistent whether a
  // link was created before or after the rule was installed.
  for (size_t s = 0; s < links_.size(); ++s) {
    for (size_t d = 0; d < links_[s].size(); ++d) {
      if (links_[s][d] == nullptr) continue;
      links_[s][d]->SetDegradation(
          DegradationFor(hosts_[s].name, hosts_[d].name));
    }
  }
}

bool Network::Send(HostId from, HostId to, uint64_t bytes,
                   InlineAction on_delivered) {
  CRAYFISH_CHECK_LT(static_cast<size_t>(from), hosts_.size())
      << "unknown host id " << static_cast<uint32_t>(from);
  CRAYFISH_CHECK_LT(static_cast<size_t>(to), hosts_.size())
      << "unknown host id " << static_cast<uint32_t>(to);
  if (from == to) {
    // Loopback: delivered within the same event-loop instant.
    sim_->Schedule(0.0, std::move(on_delivered));
    return true;
  }
  return GetOrCreateLink(from, to)->Transfer(bytes, std::move(on_delivered));
}

double Network::IdleTransferTime(const std::string& from,
                                 const std::string& to,
                                 uint64_t bytes) const {
  if (from == to) return 0.0;
  const LinkSpec spec = SpecFor(from, to);
  const LinkDegradation deg = DegradationFor(from, to);
  return PropagationSeconds(spec, deg) + TransmitSeconds(spec, deg, bytes);
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& out : links_) {
    for (const auto& link : out) {
      if (link != nullptr) total += link->bytes_sent();
    }
  }
  return total;
}

size_t Network::live_link_count() const {
  size_t total = 0;
  for (const auto& out : links_) {
    for (const auto& link : out) total += link != nullptr ? 1 : 0;
  }
  return total;
}

}  // namespace crayfish::sim
