#ifndef CRAYFISH_SIM_NETWORK_H_
#define CRAYFISH_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "sim/simulation.h"

namespace crayfish::sim {

/// Parameters of a point-to-point link. Defaults are calibrated from the
/// paper's environment (§4.2): GCP LAN, measured *round-trip* ping of
/// 0.945 ms for a 3 KB echo and 1.565 ms for 64 KB. An echo transfers the
/// payload twice, so 0.62 ms / (2 x 61 KB) gives ~190 MB/s effective
/// bandwidth and ~0.42 ms one-way propagation.
struct LinkSpec {
  double latency_s = 0.00042;
  double bandwidth_bytes_per_s = 190.0 * 1024.0 * 1024.0;
};

/// Fault-injection overlay for a link: multiplies the spec's propagation
/// latency and divides its bandwidth without rewriting the spec, so lifting
/// the degradation restores the calibrated baseline exactly. `drop` models a
/// network partition: transfers are accepted but never delivered (the
/// sender's timeout/retry machinery is what notices).
struct LinkDegradation {
  double latency_mult = 1.0;    // >= 0; 1.0 = healthy
  double bandwidth_mult = 1.0;  // must stay strictly positive
  bool drop = false;

  bool active() const {
    return latency_mult != 1.0 || bandwidth_mult != 1.0 || drop;
  }
};

/// One-way propagation delay of a (possibly degraded) link.
double PropagationSeconds(const LinkSpec& spec, const LinkDegradation& deg);
/// Serialization time of `bytes` on a (possibly degraded) link.
double TransmitSeconds(const LinkSpec& spec, const LinkDegradation& deg,
                       uint64_t bytes);

/// A directed link: propagation latency plus a FIFO-serialized bandwidth
/// component (one transfer occupies the transmit path at a time; the
/// latency component overlaps between transfers).
class Link {
 public:
  Link(Simulation* sim, LinkSpec spec);

  /// Delivers `bytes` to the receiver, invoking `on_delivered` at the
  /// simulated arrival instant. Under a `drop` degradation the transfer is
  /// counted as dropped, `on_delivered` is destroyed without running, and
  /// Transfer returns false.
  bool Transfer(uint64_t bytes, InlineAction on_delivered);

  /// Applies (or, with a default-constructed argument, lifts) a fault
  /// overlay. CHECK-fails unless the multipliers keep bandwidth strictly
  /// positive and latency non-negative.
  void SetDegradation(LinkDegradation deg);

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t dropped_transfers() const { return dropped_transfers_; }

 private:
  Simulation* sim_;
  LinkSpec spec_;
  LinkDegradation degradation_;
  SimTime tx_free_at_ = 0.0;
  uint64_t bytes_sent_ = 0;
  uint64_t dropped_transfers_ = 0;
};

/// Dense id of a host, handed out by Network::AddHost in registration
/// order. Events address hosts by id; names stay at the edges.
enum class HostId : uint32_t {};

/// A machine in the simulated cluster. Hosts are bookkeeping entities: they
/// name endpoints for the network and describe the resources (vCPUs,
/// memory) the paper allocates per component VM.
struct Host {
  std::string name;
  int vcpus = 4;
  uint64_t memory_bytes = 15ULL << 30;
  bool has_gpu = false;
};

/// The simulated cluster network: a set of hosts plus directed links
/// between them. Links are created lazily with the default spec; tests and
/// experiments can override per-pair specs (e.g. to model a degraded path).
class Network {
 public:
  explicit Network(Simulation* sim);

  /// Registers a host under the next HostId; AlreadyExists if the name is
  /// taken.
  crayfish::Status AddHost(Host host);
  bool HasHost(const std::string& name) const;
  crayfish::StatusOr<Host> GetHost(const std::string& name) const;
  /// NotFound for an unknown name. Components resolve ids at construction.
  crayfish::StatusOr<HostId> FindHost(const std::string& name) const;

  /// Overrides the spec used for the (from, to) directed pair; affects the
  /// link created on first use (or re-creates an existing one).
  void SetLinkSpec(const std::string& from, const std::string& to,
                   LinkSpec spec);
  /// Spec for pairs with no override.
  const LinkSpec& default_spec() const { return default_spec_; }

  /// Installs a degradation rule for the (from, to) directed pair; an empty
  /// string is a wildcard ("kafka-0" -> "" degrades every link out of
  /// kafka-0; "" -> "" degrades the whole fabric). The most specific rule
  /// wins: exact pair, then (from, *), then (*, to), then (*, *). Rules
  /// apply to existing links immediately and to links created later;
  /// installing a default-constructed LinkDegradation lifts the fault.
  /// Loopback (from == to) traffic is never degraded.
  void SetDegradation(const std::string& from, const std::string& to,
                      LinkDegradation deg);
  /// The rule that applies to the (from, to) pair (identity if none).
  LinkDegradation DegradationFor(const std::string& from,
                                 const std::string& to) const;

  /// Sends `bytes` from `from` to `to`; `on_delivered` fires at arrival.
  /// Transfers between a host and itself are instantaneous (loopback).
  /// Returns false when a partitioned link dropped the transfer (and with
  /// it `on_delivered`), so a sender can release request state it keeps.
  /// CHECK-fails on an out-of-range id.
  bool Send(HostId from, HostId to, uint64_t bytes, InlineAction on_delivered);

  /// Idle-link transfer estimate between two hosts.
  double IdleTransferTime(const std::string& from, const std::string& to,
                          uint64_t bytes) const;

  uint64_t total_bytes_sent() const;
  /// Materialized directed links (links are lazy; this counts only pairs
  /// that actually communicated, so a thousand-host topology does not cost
  /// a million Link objects).
  size_t live_link_count() const;

 private:
  Link* GetOrCreateLink(HostId from, HostId to);
  LinkSpec SpecFor(const std::string& from, const std::string& to) const;

  Simulation* sim_;
  LinkSpec default_spec_;
  /// Hosts by id, plus the name -> id index the edges resolve through.
  std::vector<Host> hosts_;
  std::map<std::string, HostId> host_ids_;
  std::map<std::pair<std::string, std::string>, LinkSpec> spec_overrides_;
  std::map<std::pair<std::string, std::string>, LinkDegradation> degradations_;
  /// links_[from][to], grown on first use (null: never communicated).
  /// Enumerations update or sum each link on its own: order-independent.
  std::vector<std::vector<std::unique_ptr<Link>>> links_;
};

}  // namespace crayfish::sim

#endif  // CRAYFISH_SIM_NETWORK_H_
