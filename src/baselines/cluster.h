// Simulated cluster fixture for the packet-level baseline engines (mirrors
// harness/SimCluster for the FSR engine; failure-free). One template serves
// every baseline: they share the engine surface (broadcast / on_frame /
// on_tx_ready) and the (transport, config, view, deliver) constructor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/fixed_seq_engine.h"
#include "baselines/moving_seq_engine.h"
#include "baselines/privilege_engine.h"
#include "transport/sim_transport.h"

namespace fsr::baselines {

template <class EngineT, class ConfigT>
class BaselineCluster {
 public:
  struct LogEntry {
    NodeId origin = kNoNode;
    std::uint64_t app_msg = 0;
    std::size_t bytes = 0;
    Time at = 0;
  };

  BaselineCluster(NetConfig net, std::size_t n, ConfigT config)
      : world_(net, n), logs_(n) {
    View v;
    v.id = 1;
    for (std::size_t i = 0; i < n; ++i) v.members.push_back(static_cast<NodeId>(i));
    for (std::size_t i = 0; i < n; ++i) {
      auto id = static_cast<NodeId>(i);
      engines_.push_back(std::make_unique<EngineT>(
          world_.transport(id), config, v, [this, id](const Delivery& d) {
            logs_[id].push_back(
                LogEntry{d.origin, d.app_msg, d.payload.size(), world_.sim().now()});
          }));
      TransportHandlers h;
      h.on_frame = [this, id](const Frame& f) { engines_[id]->on_frame(f); };
      h.on_tx_ready = [this, id] { engines_[id]->on_tx_ready(); };
      world_.transport(id).set_handlers(std::move(h));
    }
  }

  Simulator& sim() { return world_.sim(); }
  std::size_t size() const { return engines_.size(); }

  void broadcast(NodeId from, Bytes payload) {
    engines_[from]->broadcast(std::move(payload));
  }

  const std::vector<LogEntry>& log(NodeId node) const { return logs_[node]; }

  /// Empty if all logs are identical (total order + agreement).
  std::string check_logs_identical() const {
    for (std::size_t n = 1; n < logs_.size(); ++n) {
      if (logs_[n].size() != logs_[0].size()) {
        return "node " + std::to_string(n) + " delivered " +
               std::to_string(logs_[n].size()) + " vs " + std::to_string(logs_[0].size());
      }
      for (std::size_t i = 0; i < logs_[n].size(); ++i) {
        if (logs_[n][i].origin != logs_[0][i].origin ||
            logs_[n][i].app_msg != logs_[0][i].app_msg) {
          return "divergence at index " + std::to_string(i) + " on node " +
                 std::to_string(n);
        }
      }
    }
    return {};
  }

 private:
  SimWorld world_;
  std::vector<std::unique_ptr<EngineT>> engines_;
  std::vector<std::vector<LogEntry>> logs_;
};

using FixedSeqCluster = BaselineCluster<FixedSeqEngine, FixedSeqConfig>;
using MovingSeqCluster = BaselineCluster<MovingSeqEngine, MovingSeqConfig>;
using PrivilegeCluster = BaselineCluster<PrivilegeEngine, PrivilegeConfig>;

}  // namespace fsr::baselines
