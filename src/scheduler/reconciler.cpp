#include "scheduler/reconciler.h"

#include <vector>

#include "common/logging.h"
#include "openflow/epoch.h"
#include "scheduler/schedulers.h"

namespace tango::sched {

std::string rule_key(const of::Match& match, std::uint16_t priority) {
  return match.to_string() + "/" + std::to_string(priority);
}

TableImage image_of(const of::FlowStatsReply& reply) {
  TableImage image;
  for (const auto& e : reply.entries) {
    image[rule_key(e.match, e.priority)] =
        RuleImage{e.match, e.priority, e.actions, e.cookie};
  }
  return image;
}

void apply_to_image(TableImage& image, const of::FlowMod& fm) {
  switch (fm.command) {
    case of::FlowModCommand::kAdd:
      image[rule_key(fm.match, fm.priority)] =
          RuleImage{fm.match, fm.priority, fm.actions, fm.cookie};
      return;
    case of::FlowModCommand::kModify:
    case of::FlowModCommand::kModifyStrict: {
      std::size_t updated = 0;
      for (auto& [key, rule] : image) {
        const bool hit = fm.command == of::FlowModCommand::kModifyStrict
                             ? rule.match == fm.match && rule.priority == fm.priority
                             : fm.match.subsumes(rule.match);
        if (!hit) continue;
        rule.actions = fm.actions;
        rule.cookie = fm.cookie;
        ++updated;
      }
      if (updated == 0) {
        // Per OpenFlow 1.0, MODIFY with no matching entry behaves like ADD.
        image[rule_key(fm.match, fm.priority)] =
            RuleImage{fm.match, fm.priority, fm.actions, fm.cookie};
      }
      return;
    }
    case of::FlowModCommand::kDelete:
      for (auto it = image.begin(); it != image.end();) {
        if (fm.match.subsumes(it->second.match)) {
          it = image.erase(it);
        } else {
          ++it;
        }
      }
      return;
    case of::FlowModCommand::kDeleteStrict:
      image.erase(rule_key(fm.match, fm.priority));
      return;
  }
}

std::optional<TableImage> Reconciler::read_table(SwitchId id,
                                                ReconcileStats& stats) {
  for (std::size_t attempt = 0; attempt <= options_.max_readback_retries;
       ++attempt) {
    ++stats.readback_requests;
    auto reply =
        network_.try_flow_stats(id, of::Match::any(), options_.readback_timeout);
    if (reply.has_value()) return image_of(*reply);
    ++stats.readback_lost;
  }
  log::warn("reconciler: switch " + std::to_string(id) +
            " table unreadable after " +
            std::to_string(options_.max_readback_retries + 1) + " attempts");
  return std::nullopt;
}

ReconcileStats Reconciler::run(const std::map<SwitchId, TableImage>& desired,
                               const Author& author,
                               const MustPrecede& must_precede) {
  ReconcileStats stats;

  struct Repair {
    SwitchId sw = 0;
    RequestType type = RequestType::kAdd;
    RuleImage rule;
    std::optional<std::size_t> author;
  };

  for (;;) {
    // --- quiesce: let in-flight frames of the aborted commit land ---------
    if (options_.quiesce.ns() > 0) {
      network_.run_until(network_.now() + options_.quiesce);
    }

    // --- readback + diff --------------------------------------------------
    std::vector<Repair> repairs;
    std::set<SwitchId> unread;
    for (const auto& [sw, want] : desired) {
      const auto actual = read_table(sw, stats);
      if (!actual.has_value()) {
        unread.insert(sw);
        continue;
      }
      for (const auto& [key, rule] : want) {
        const auto it = actual->find(key);
        if (it == actual->end() || !(it->second == rule)) {
          repairs.push_back(
              {sw, RequestType::kAdd, rule,
               author ? author(sw, rule) : std::nullopt});
        }
      }
      for (const auto& [key, rule] : *actual) {
        if (options_.scope && !options_.scope(sw, rule)) continue;
        if (want.find(key) == want.end()) {
          repairs.push_back(
              {sw, RequestType::kDel, rule,
               author ? author(sw, rule) : std::nullopt});
        }
      }
    }
    stats.unreconciled = std::move(unread);
    if (repairs.empty()) {
      stats.converged = stats.unreconciled.empty();
      return stats;
    }
    if (stats.rounds >= options_.max_rounds) {
      log::warn("reconciler: round budget exhausted with " +
                std::to_string(repairs.size()) + " repairs outstanding");
      return stats;
    }
    ++stats.rounds;

    // --- collateral: a non-strict DELETE also sweeps desired rules its
    // match subsumes; re-add them behind it. --------------------------------
    const std::size_t direct = repairs.size();
    for (std::size_t i = 0; i < direct; ++i) {
      if (repairs[i].type != RequestType::kDel) continue;
      const auto& want = desired.at(repairs[i].sw);
      for (const auto& [key, rule] : want) {
        if (!repairs[i].rule.match.subsumes(rule.match)) continue;
        bool present = false;
        for (const auto& r : repairs) {
          if (r.sw == repairs[i].sw && r.type == RequestType::kAdd &&
              rule_key(r.rule.match, r.rule.priority) == key) {
            present = true;
            break;
          }
        }
        if (!present) {
          repairs.push_back({repairs[i].sw, RequestType::kAdd, rule,
                             author ? author(repairs[i].sw, rule)
                                    : std::nullopt});
        }
      }
    }

    // --- build the repair DAG ---------------------------------------------
    RequestDag rdag;
    for (const auto& r : repairs) {
      SwitchRequest req;
      req.location = r.sw;
      req.type = r.type;
      req.priority = r.rule.priority;
      req.match = r.rule.match;
      req.actions = r.rule.actions;
      req.cookie = options_.repair_epoch != 0
                       ? of::refence_cookie(r.rule.cookie, options_.repair_epoch)
                       : r.rule.cookie;
      rdag.add(std::move(req));
      if (r.type == RequestType::kAdd) {
        ++stats.repairs_issued;
      } else {
        ++stats.stale_rules_removed;
      }
    }
    for (std::size_t i = 0; i < repairs.size(); ++i) {
      if (repairs[i].type != RequestType::kDel) continue;
      for (std::size_t j = 0; j < repairs.size(); ++j) {
        if (repairs[j].type != RequestType::kAdd ||
            repairs[j].sw != repairs[i].sw) {
          continue;
        }
        if (repairs[i].rule.match.subsumes(repairs[j].rule.match)) {
          rdag.add_dependency(i, j);
        }
      }
    }
    if (must_precede) {
      for (std::size_t i = 0; i < repairs.size(); ++i) {
        if (!repairs[i].author.has_value()) continue;
        for (std::size_t j = 0; j < repairs.size(); ++j) {
          if (i == j || !repairs[j].author.has_value()) continue;
          if (must_precede(*repairs[i].author, *repairs[j].author)) {
            rdag.add_dependency(i, j);
          }
        }
      }
    }

    // --- issue the repairs -------------------------------------------------
    log::info("reconciler: round " + std::to_string(stats.rounds) + ", " +
              std::to_string(repairs.size()) + " repairs across " +
              std::to_string(desired.size()) + " switches");
    DionysusScheduler scheduler;
    ExecutorOptions exec = options_.exec;
    exec.on_complete = nullptr;  // journal bookkeeping is the commit's, not ours
    exec.on_failed = nullptr;
    execute(network_, rdag, scheduler, exec);
    // Loop: the next readback round verifies the repairs landed.
  }
}

}  // namespace tango::sched
