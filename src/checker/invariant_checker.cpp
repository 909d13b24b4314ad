#include "checker/invariant_checker.h"

#include <algorithm>
#include <map>

namespace fsr {

std::string describe_msg(NodeId origin, std::uint64_t app_msg) {
  return "m(" + std::to_string(origin) + "," + std::to_string(app_msg) + ")";
}

namespace {

std::string describe(const DeliveryRecord& e) { return describe_msg(e.origin, e.app_msg); }

std::string group_tag(GroupId g) { return "group " + std::to_string(g); }

/// A node's log restricted to one ordering domain (order preserved).
std::vector<const DeliveryRecord*> restrict_log(const std::vector<DeliveryRecord>& log,
                                                GroupId g) {
  std::vector<const DeliveryRecord*> out;
  for (const auto& e : log) {
    if (e.group == g) out.push_back(&e);
  }
  return out;
}

}  // namespace

InvariantChecker::InvariantChecker(std::size_t n, CheckerConfig config)
    : n_(n), cfg_(config), logs_(n) {}

InvariantChecker::GroupState& InvariantChecker::group_state(GroupId g) {
  auto [gs, inserted] = groups_.try_emplace(g);
  if (inserted) gs.last_seq_view.resize(n_);
  return gs;
}

InvariantChecker::OriginState& InvariantChecker::origin_state(GroupState& gs, NodeId origin) {
  auto [os, inserted] = gs.origins.try_emplace(origin);
  if (inserted) os.last_app.resize(n_);
  return os;
}

const std::uint64_t* InvariantChecker::submitted_hash(GroupId g, NodeId origin,
                                                      std::uint64_t app_msg) const {
  const GroupState* gs = groups_.find(g);
  const OriginState* os = gs ? gs->origins.find(origin) : nullptr;
  return os ? os->submitted.find(app_msg) : nullptr;
}

std::optional<GroupId> InvariantChecker::submitted_elsewhere(GroupId g, NodeId origin,
                                                             std::uint64_t app_msg) const {
  std::optional<GroupId> found;
  groups_.for_each([&](std::uint64_t other, const GroupState& gs) {
    if (found || other == g) return;
    const OriginState* os = gs.origins.find(origin);
    if (os && os->submitted.find(app_msg)) found = static_cast<GroupId>(other);
  });
  return found;
}

void InvariantChecker::record_violation(std::string what) {
  if (!first_violation_.empty()) return;
  if (context_) {
    std::string ctx = context_();
    if (!ctx.empty()) what += " [" + ctx + "]";
  }
  first_violation_ = std::move(what);
}

void InvariantChecker::set_context_provider(std::function<std::string()> fn) {
  MutexLock lock(mutex_);
  context_ = std::move(fn);
}

void InvariantChecker::on_broadcast(GroupId group, NodeId origin, std::uint64_t app_msg,
                                    std::uint64_t payload_hash) {
  MutexLock lock(mutex_);
  GroupState& gs = group_state(group);
  gs.submitted_any = true;
  origin_state(gs, origin).submitted.try_emplace(app_msg).first = payload_hash;
}

void InvariantChecker::on_delivery(const DeliveryRecord& rec) {
  MutexLock lock(mutex_);
  if (rec.node >= n_) {
    record_violation("delivery at unknown node " + std::to_string(rec.node));
    return;
  }
  // The message prefix is built only when a violation is recorded: this
  // runs on every delivery of every harness.
  auto where = [&rec] {
    return "node " + std::to_string(rec.node) + " delivering " + group_tag(rec.group) + " " +
           describe(rec);
  };
  GroupState& gs = group_state(rec.group);

  // Each group's sequence numbers are one namespace for the whole run (the
  // engine resumes next_seq from the recovery horizon on every view
  // install), so a process must observe them strictly increasing *within the
  // group*. Groups are independent domains: no cross-group seq relation.
  auto& sv = gs.last_seq_view[rec.node];
  if (sv) {
    if (rec.seq <= sv->seq) {
      record_violation(where() + ": seq " + std::to_string(rec.seq) +
                       " not above previous " + std::to_string(sv->seq));
    }
    if (rec.view < sv->view) {
      record_violation(where() + ": view regressed " + std::to_string(sv->view) + " -> " +
                       std::to_string(rec.view));
    }
  }
  sv = SeqView{rec.seq, rec.view};

  // All processes must agree on which message each (group, seq) carries —
  // disagreement here IS a total-order violation, caught at the instant the
  // second process delivers.
  Identity id{rec.origin, rec.app_msg, rec.payload_hash};
  auto [carried, first_at_seq] = gs.seq_identity.try_emplace(rec.seq);
  if (first_at_seq) {
    carried = id;
  } else if (!(carried == id)) {
    record_violation(where() + ": seq " + std::to_string(rec.seq) + " already carried " +
                     describe_msg(carried.origin, carried.app_msg));
  }

  // At-most-once per process and per-origin FIFO, online: within a group the
  // origin's counter must move strictly forward (equal or lower = duplicate
  // or reordering). Counters in different groups are unrelated streams.
  OriginState& os = origin_state(gs, rec.origin);
  auto& last = os.last_app[rec.node];
  if (last && rec.app_msg <= *last) {
    record_violation(where() + ": origin counter went backwards (last was " +
                     describe_msg(rec.origin, *last) + "): duplicate or FIFO violation");
  }
  last = rec.app_msg;

  // Payload integrity against the recorded submission — in this group. A
  // delivery whose identity was only ever submitted in a *different* group
  // is cross-group sequence aliasing: some layer leaked a message across
  // ordering domains (e.g. a mux dispatch bug), which per-group bookkeeping
  // would otherwise mask as a mere unknown broadcast.
  if (const std::uint64_t* hash = os.submitted.find(rec.app_msg); !hash) {
    if (auto other = submitted_elsewhere(rec.group, rec.origin, rec.app_msg)) {
      record_violation(where() + ": cross-group aliasing — message was submitted in " +
                       group_tag(*other) + ", not " + group_tag(rec.group));
    } else if (cfg_.require_known_broadcasts) {
      record_violation(where() + ": message was never broadcast");
    }
  } else if (*hash != rec.payload_hash) {
    record_violation(where() + ": payload hash mismatch");
  }

  logs_[rec.node].push_back(rec);
  ++deliveries_;
}

void InvariantChecker::note_crashed(NodeId node) {
  MutexLock lock(mutex_);
  crashed_.insert(node);
}

std::uint64_t InvariantChecker::deliveries() const {
  MutexLock lock(mutex_);
  return deliveries_;
}

std::set<NodeId> InvariantChecker::crashed() const {
  MutexLock lock(mutex_);
  return crashed_;
}

std::vector<DeliveryRecord> InvariantChecker::log(NodeId node) const {
  MutexLock lock(mutex_);
  return logs_[node];
}

std::vector<DeliveryRecord> InvariantChecker::log(NodeId node, GroupId group) const {
  MutexLock lock(mutex_);
  std::vector<DeliveryRecord> out;
  for (const auto& e : logs_[node]) {
    if (e.group == group) out.push_back(e);
  }
  return out;
}

std::set<GroupId> InvariantChecker::groups_seen() const {
  MutexLock lock(mutex_);
  std::set<GroupId> gs;
  groups_.for_each([&gs](std::uint64_t g, const GroupState& state) {
    if (state.submitted_any) gs.insert(static_cast<GroupId>(g));
  });
  for (const auto& log : logs_) {
    for (const auto& e : log) gs.insert(e.group);
  }
  return gs;
}

std::string InvariantChecker::online_violation() const {
  MutexLock lock(mutex_);
  return first_violation_;
}

// --- full-trace passes ---
//
// Each pass partitions the logs by group and applies the single-ring
// property within every partition: the properties quantify over one
// ordering domain, and any relation the harness observed *across* groups is
// deliberately unconstrained (that independence is what sharding buys).

std::set<GroupId> InvariantChecker::groups_in_logs_locked() const {
  std::set<GroupId> gs;
  for (const auto& log : logs_) {
    for (const auto& e : log) gs.insert(e.group);
  }
  if (gs.empty()) gs.insert(0);
  return gs;
}

std::string InvariantChecker::check_total_order() const {
  MutexLock lock(mutex_);
  return check_total_order_locked();
}

std::string InvariantChecker::check_total_order_locked() const {
  // Pairwise, per group: the common subsequence of two logs must appear in
  // the same order in both. Since each (group, origin, app_msg) appears at
  // most once per log (checked by integrity), it suffices to compare the
  // restriction of each log to the other's delivered set.
  using Key = std::pair<NodeId, std::uint64_t>;
  for (GroupId g : groups_in_logs_locked()) {
    for (std::size_t a = 0; a < logs_.size(); ++a) {
      for (std::size_t b = a + 1; b < logs_.size(); ++b) {
        auto la = restrict_log(logs_[a], g);
        auto lb = restrict_log(logs_[b], g);
        std::set<Key> in_a, in_b;
        for (const auto* e : la) in_a.insert({e->origin, e->app_msg});
        for (const auto* e : lb) in_b.insert({e->origin, e->app_msg});
        std::vector<Key> ra, rb;
        for (const auto* e : la) {
          if (in_b.count({e->origin, e->app_msg})) ra.push_back({e->origin, e->app_msg});
        }
        for (const auto* e : lb) {
          if (in_a.count({e->origin, e->app_msg})) rb.push_back({e->origin, e->app_msg});
        }
        if (ra != rb) {
          return "total order violated in " + group_tag(g) + " between node " +
                 std::to_string(a) + " and node " + std::to_string(b);
        }
      }
    }
  }
  return {};
}

std::string InvariantChecker::check_agreement(const std::set<NodeId>& correct) const {
  MutexLock lock(mutex_);
  return check_agreement_locked(correct);
}

std::string InvariantChecker::check_agreement_locked(const std::set<NodeId>& correct) const {
  for (GroupId g : groups_in_logs_locked()) {
    std::vector<const DeliveryRecord*> ref;
    bool have_ref = false;
    NodeId ref_id = kNoNode;
    for (NodeId n : correct) {
      auto log = restrict_log(logs_[n], g);
      if (!have_ref) {
        ref = std::move(log);
        have_ref = true;
        ref_id = n;
        continue;
      }
      if (log.size() != ref.size()) {
        return "agreement violated in " + group_tag(g) + ": node " + std::to_string(n) +
               " delivered " + std::to_string(log.size()) + " messages, node " +
               std::to_string(ref_id) + " delivered " + std::to_string(ref.size());
      }
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i]->origin != ref[i]->origin || log[i]->app_msg != ref[i]->app_msg ||
            log[i]->payload_hash != ref[i]->payload_hash) {
          return "agreement violated in " + group_tag(g) + " at index " +
                 std::to_string(i) + ": node " + std::to_string(n) + " delivered " +
                 describe(*log[i]) + ", node " + std::to_string(ref_id) +
                 " delivered " + describe(*ref[i]);
        }
      }
    }
  }
  return {};
}

std::string InvariantChecker::check_integrity() const {
  MutexLock lock(mutex_);
  return check_integrity_locked();
}

std::string InvariantChecker::check_integrity_locked() const {
  for (std::size_t n = 0; n < logs_.size(); ++n) {
    std::set<MsgKey> seen;
    for (const auto& e : logs_[n]) {
      MsgKey key{e.group, e.origin, e.app_msg};
      if (!seen.insert(key).second) {
        return "node " + std::to_string(n) + " delivered " + group_tag(e.group) + " " +
               describe(e) + " twice";
      }
      const std::uint64_t* hash = submitted_hash(e.group, e.origin, e.app_msg);
      if (!hash) {
        if (auto other = submitted_elsewhere(e.group, e.origin, e.app_msg)) {
          return "node " + std::to_string(n) + " delivered " + describe(e) + " in " +
                 group_tag(e.group) + " but it was submitted in " + group_tag(*other) +
                 " (cross-group aliasing)";
        }
        if (cfg_.require_known_broadcasts) {
          return "node " + std::to_string(n) + " delivered never-broadcast " +
                 describe(e);
        }
      } else if (*hash != e.payload_hash) {
        return "node " + std::to_string(n) + " delivered corrupted payload for " +
               describe(e);
      }
    }
  }
  return {};
}

std::string InvariantChecker::check_uniformity(const std::set<NodeId>& crashed,
                                               const std::set<NodeId>& correct) const {
  MutexLock lock(mutex_);
  return check_uniformity_locked(crashed, correct);
}

std::string InvariantChecker::check_uniformity_locked(
    const std::set<NodeId>& crashed, const std::set<NodeId>& correct) const {
  for (GroupId g : groups_in_logs_locked()) {
    for (NodeId c : crashed) {
      auto clog = restrict_log(logs_[c], g);
      for (NodeId s : correct) {
        auto slog = restrict_log(logs_[s], g);
        if (clog.size() > slog.size()) {
          return "uniformity violated in " + group_tag(g) + ": crashed node " +
                 std::to_string(c) + " delivered more than correct node " +
                 std::to_string(s);
        }
        for (std::size_t i = 0; i < clog.size(); ++i) {
          if (clog[i]->origin != slog[i]->origin || clog[i]->app_msg != slog[i]->app_msg) {
            return "uniformity violated in " + group_tag(g) + ": crashed node " +
                   std::to_string(c) + " delivered " + describe(*clog[i]) +
                   " at index " + std::to_string(i) + " but correct node " +
                   std::to_string(s) + " delivered " + describe(*slog[i]);
          }
        }
      }
    }
  }
  return {};
}

std::string InvariantChecker::check_fifo() const {
  MutexLock lock(mutex_);
  return check_fifo_locked(cfg_.require_gap_free_origins);
}

std::string InvariantChecker::check_fifo_locked(bool require_gap_free) const {
  // Channels are FIFO and rebroadcast-after-view-change preserves submission
  // order, so each node sees every origin's counter strictly increasing
  // within a group; a *gap* means a message was lost while a later one from
  // the same (group, origin) stream survived — impossible without an
  // ordering bug.
  for (std::size_t n = 0; n < logs_.size(); ++n) {
    std::map<std::pair<GroupId, NodeId>, std::uint64_t> last;
    for (const auto& e : logs_[n]) {
      auto [it, first] = last.try_emplace(std::pair{e.group, e.origin}, e.app_msg);
      if (!first) {
        if (e.app_msg <= it->second) {
          return "node " + std::to_string(n) + " delivered " + group_tag(e.group) +
                 " " + describe(e) + " after " + describe_msg(e.origin, it->second) +
                 " (FIFO violation)";
        }
        if (require_gap_free && e.app_msg != it->second + 1) {
          return "node " + std::to_string(n) + " delivered " + group_tag(e.group) +
                 " " + describe(e) + " after " + describe_msg(e.origin, it->second) +
                 " (gap: " + std::to_string(e.app_msg - it->second - 1) +
                 " message(s) lost)";
        }
        it->second = e.app_msg;
      }
    }
  }
  return {};
}

std::string InvariantChecker::check_all() const {
  MutexLock lock(mutex_);
  if (!first_violation_.empty()) return first_violation_;
  std::set<NodeId> correct;
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    auto id = static_cast<NodeId>(i);
    if (crashed_.count(id) == 0) correct.insert(id);
  }
  if (auto err = check_integrity_locked(); !err.empty()) return err;
  if (auto err = check_total_order_locked(); !err.empty()) return err;
  if (auto err = check_agreement_locked(correct); !err.empty()) return err;
  if (auto err = check_uniformity_locked(crashed_, correct); !err.empty()) return err;
  if (auto err = check_fifo_locked(cfg_.require_gap_free_origins); !err.empty()) {
    return err;
  }
  return {};
}

}  // namespace fsr
