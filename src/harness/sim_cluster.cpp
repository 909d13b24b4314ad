#include "harness/sim_cluster.h"

#include <algorithm>
#include <cstring>

namespace fsr {

std::uint64_t hash_bytes(std::span<const std::uint8_t> b) {
  // FNV-style fold taken 8 bytes per step: this runs on every broadcast and
  // every delivery in both harnesses (the checker compares it for equality
  // only), and the byte-at-a-time chain was measurable in TCP bench runs.
  std::uint64_t h = 1469598103934665603ULL;
  const std::uint8_t* p = b.data();
  std::size_t n = b.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 1099511628211ULL;
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ (tail + n)) * 1099511628211ULL;
  }
  return h;
}

Bytes test_payload(NodeId origin, std::uint64_t app_msg, std::size_t size) {
  Bytes b(size);
  std::uint64_t x = (std::uint64_t{origin} << 32) ^ app_msg ^ 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < size; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b[i] = static_cast<std::uint8_t>(x);
  }
  return b;
}

SimCluster::SimCluster(ClusterConfig config)
    : cfg_(config),
      world_(config.net, config.n, config.fd_delay),
      checker_(config.n),
      logs_(config.n),
      submit_times_(config.n * config.groups) {
  std::size_t members_n =
      config.initial_members == 0 ? config.n : config.initial_members;
  // Each group's initial ring is the same member set rotated by the group
  // id, so sequencer duty (position 0) spreads across nodes instead of
  // stacking every group's leader on node 0.
  muxes_.reserve(config.n);
  members_.resize(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    auto id = static_cast<NodeId>(i);
    muxes_.push_back(std::make_unique<GroupMux>(world_.transport(id), config.groups));
    members_[i].reserve(config.groups);
    for (GroupId g = 0; g < config.groups; ++g) {
      View initial;
      initial.id = 1;
      for (std::size_t k = 0; k < members_n; ++k) {
        initial.members.push_back(static_cast<NodeId>((g + k) % members_n));
      }
      GroupConfig gc = config.group;
      gc.engine.group = g;
      members_[i].push_back(std::make_unique<GroupMember>(
          muxes_[i]->channel(g), gc, initial,
          [this, id](const Delivery& d) {
            std::uint64_t hash = hash_bytes(d.payload);
            Time at = world_.sim().now();
            logs_[id].push_back(LogEntry{d.group, d.origin, d.app_msg, d.seq, d.view,
                                         d.payload.size(), at, hash});
            checker_.on_delivery(DeliveryRecord{id, d.group, d.origin, d.app_msg,
                                                d.seq, d.view, hash,
                                                d.payload.size(), at});
            if (tap_) tap_(id, d);
          },
          [this, id](const View& v) {
            if (view_tap_) view_tap_(id, v);
          }));
    }
  }
}

std::uint64_t SimCluster::note_submit(NodeId from, GroupId group) {
  // The engine numbers own app messages 1, 2, ... per group; mirror that.
  auto& times = submit_times_[from * cfg_.groups + group];
  times.push_back(world_.sim().now());
  return times.size();
}

void SimCluster::broadcast(NodeId from, GroupId group, Bytes payload) {
  GroupMember& m = *members_[from].at(group);
  checker_.on_broadcast(group, from, note_submit(from, group), hash_bytes(payload));
  m.broadcast(std::move(payload));
}

void SimCluster::broadcast(NodeId from, GroupId group, Payload payload) {
  GroupMember& m = *members_[from].at(group);
  checker_.on_broadcast(group, from, note_submit(from, group), hash_bytes(payload.span()));
  m.broadcast(std::move(payload));
}

void SimCluster::crash(NodeId node, Time fd_delay) {
  crashed_.insert(node);
  checker_.note_crashed(node);
  world_.crash(node, fd_delay);
}

void SimCluster::crash_silent(NodeId node) {
  crashed_.insert(node);
  checker_.note_crashed(node);
  world_.crash_silent(node);
}

Time SimCluster::submit_time(NodeId origin, std::uint64_t app_msg, GroupId group) const {
  if (origin >= size() || group >= cfg_.groups) return -1;
  const auto& times = submit_times_[origin * cfg_.groups + group];
  return app_msg >= 1 && app_msg <= times.size() ? times[app_msg - 1] : -1;
}

Time SimCluster::completion_time(NodeId origin, std::uint64_t app_msg,
                                 GroupId group) const {
  Time worst = -1;
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    if (crashed_.count(static_cast<NodeId>(i))) continue;
    const auto& log = logs_[i];
    auto it = std::find_if(log.begin(), log.end(), [&](const LogEntry& e) {
      return e.group == group && e.origin == origin && e.app_msg == app_msg;
    });
    if (it == log.end()) return -1;
    worst = std::max(worst, it->at);
  }
  return worst;
}

std::string SimCluster::check_total_order() const { return checker_.check_total_order(); }

std::string SimCluster::check_agreement(const std::set<NodeId>& correct) const {
  return checker_.check_agreement(correct);
}

std::string SimCluster::check_integrity() const { return checker_.check_integrity(); }

std::string SimCluster::check_uniformity(const std::set<NodeId>& crashed,
                                         const std::set<NodeId>& correct) const {
  return checker_.check_uniformity(crashed, correct);
}

std::string SimCluster::check_all() const { return checker_.check_all(); }

}  // namespace fsr
