#include "service/service.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/logging.h"

namespace tango::service {

std::string to_string(AdmitError e) {
  switch (e) {
    case AdmitError::kNone: return "none";
    case AdmitError::kEmptyIntent: return "empty-intent";
    case AdmitError::kQueueFull: return "queue-full";
    case AdmitError::kFailingOver: return "failing-over";
  }
  return "?";
}

namespace {

constexpr std::initializer_list<double> kMsBounds = {
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};

/// Deterministic nearest-rank percentile over a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

IntentService::IntentService(net::Network& network,
                             core::TangoController& controller,
                             ServiceOptions options)
    : network_(network), controller_(controller), options_(std::move(options)) {
  assert(options_.max_concurrent > 0);
  assert(options_.drr_quantum > 0);
}

SubmitResult IntentService::submit(Intent intent) {
  auto* tele = network_.telemetry();
  TenantStats& ts = report_.tenants[intent.tenant];
  ++ts.submitted;
  ++report_.submitted;
  if (tele != nullptr) tele->metrics.counter("service.submitted").inc();

  // Checked before anything else: during an HA failover the control plane
  // has no accepting primary, so admission is closed outright (no queue
  // slot is consumed — the tenant defers and resubmits after takeover).
  if (options_.admission_gate && !options_.admission_gate()) {
    ++ts.rejected;
    ++report_.rejected;
    if (tele != nullptr) {
      tele->metrics.counter("service.rejected_failing_over").inc();
    }
    return {AdmitError::kFailingOver, 0, false};
  }

  if (intent.dag.size() == 0) {
    ++ts.rejected;
    ++report_.rejected;
    if (tele != nullptr) {
      tele->metrics.counter("service.rejected_empty").inc();
    }
    return {AdmitError::kEmptyIntent, 0, false};
  }
  if (!saw_first_submit_) {
    saw_first_submit_ = true;
    first_submit_ = network_.now();
    idle_at_ = network_.now();
    last_transition_ = network_.now();
  }

  auto& queue = queues_[intent.tenant];
  if (options_.coalesce && intent.coalesce_key != 0) {
    for (Queued& slot : queue) {
      if (slot.intent.coalesce_key != intent.coalesce_key) continue;
      // Supersede in place: the slot keeps its queue position (the tenant
      // asked for this work first), the payload becomes the latest, and
      // the latency clock restarts — the old intent was never served.
      slot.fp = footprint_of(intent.dag);
      slot.cost = intent.dag.size();
      slot.intent = std::move(intent);
      slot.intent_id = next_intent_id_++;
      slot.submitted = network_.now();
      ++ts.coalesced;
      ++report_.coalesced;
      if (tele != nullptr) tele->metrics.counter("service.coalesced").inc();
      return {AdmitError::kNone, slot.intent_id, true};
    }
  }
  if (queue.size() >= options_.per_tenant_queue_cap) {
    ++ts.rejected;
    ++report_.rejected;
    if (tele != nullptr) {
      tele->metrics.counter("service.rejected_queue_full").inc();
    }
    return {AdmitError::kQueueFull, 0, false};
  }

  Queued item;
  item.intent_id = next_intent_id_++;
  item.fp = footprint_of(intent.dag);
  item.cost = intent.dag.size();
  item.submitted = network_.now();
  item.intent = std::move(intent);
  const std::uint64_t id = item.intent_id;
  queue.push_back(std::move(item));
  ++report_.admitted;
  report_.max_queue_depth = std::max(report_.max_queue_depth, queue.size());
  if (tele != nullptr) {
    tele->metrics.counter("service.admitted").inc();
    tele->metrics.gauge("service.queue_depth").set(static_cast<double>(queue.size()));
  }
  return {AdmitError::kNone, id, false};
}

std::size_t IntentService::queue_depth(TenantId tenant) const {
  const auto it = queues_.find(tenant);
  return it == queues_.end() ? 0 : it->second.size();
}

void IntentService::note_transition(std::size_t active_before) {
  const SimTime now = network_.now();
  const auto dt = static_cast<double>((now - last_transition_).ns());
  if (active_before > 0) {
    weighted_active_ns_ += dt * static_cast<double>(active_before);
    busy_ns_ += dt;
  }
  last_transition_ = now;
}

void IntentService::dispatch(Queued&& q, sched::UpdateScheduler& scheduler) {
  auto* tele = network_.telemetry();
  const SimTime decided = network_.now();
  const SimDuration wait = decided - q.submitted;
  TenantStats& ts = report_.tenants[q.intent.tenant];
  ++ts.dispatched;
  ++report_.dispatched;
  ts.total_queue_wait += wait;
  if (wait > ts.max_queue_wait) ts.max_queue_wait = wait;
  if (tele != nullptr) {
    tele->metrics.counter("service.dispatched").inc();
    tele->metrics.histogram("service.queue_wait_ms", kMsBounds)
        .observe(wait.ms());
    tele->trace.instant(
        "service", "dispatch", telemetry::TraceCollector::kControllerLane,
        decided,
        {telemetry::arg("tenant", std::uint64_t{q.intent.tenant}),
         telemetry::arg("intent", q.intent_id),
         telemetry::arg("cost", std::uint64_t{q.cost})});
  }

  sched::TransactionOptions topts = options_.txn;
  topts.policy = q.intent.policy;
  if (options_.txn_id_base != 0) {
    topts.txn_id =
        options_.txn_id_base + static_cast<std::uint32_t>(q.intent_id);
  }

  Active a;
  a.intent_id = q.intent_id;
  a.tenant = q.intent.tenant;
  a.cost = q.cost;
  a.submitted = q.submitted;
  a.dispatched = decided;
  note_transition(active_.size());
  running_.add(q.intent_id, std::move(q.fp));
  // Construction snapshots pre-state (pumps the shared queue — in-flight
  // commits advance meanwhile; footprint scoping keeps the images sound).
  a.txn = controller_.begin_update_concurrent(std::move(q.intent.dag),
                                              std::move(topts));
  a.txn->start_commit(scheduler);
  active_.push_back(std::move(a));
  report_.max_concurrency = std::max(report_.max_concurrency, active_.size());
  if (tele != nullptr) {
    tele->metrics.gauge("service.active").set(static_cast<double>(active_.size()));
  }
}

void IntentService::dispatch_round(sched::UpdateScheduler& scheduler) {
  for (;;) {
    // Rotating visit order: tenant ids >= cursor first, then wrap. The
    // deficits do the fairness; the rotation keeps tie-breaks from always
    // favouring the lowest tenant id.
    std::vector<TenantId> order;
    for (const auto& [t, q] : queues_) {
      if (!q.empty() && t >= rr_cursor_) order.push_back(t);
    }
    for (const auto& [t, q] : queues_) {
      if (!q.empty() && t < rr_cursor_) order.push_back(t);
    }
    if (order.empty()) return;

    bool dispatched_any = false;
    for (const TenantId t : order) {
      auto& queue = queues_[t];
      if (queue.empty()) continue;
      std::size_t& deficit = deficit_[t];
      deficit += options_.drr_quantum;
      while (!queue.empty() && active_.size() < options_.max_concurrent) {
        Queued& head = queue.front();
        if (deficit < head.cost) break;  // accrues; catches up next pass
        if (!running_.compatible(head.fp)) {
          // Head-of-line: per-tenant FIFO order is part of the contract,
          // so a conflicted head blocks its whole queue (the deficit keeps
          // accruing — the tenant catches up once the conflict drains).
          ++report_.conflict_blocks;
          if (auto* tele = network_.telemetry()) {
            tele->metrics.counter("service.conflict_blocks").inc();
          }
          break;
        }
        deficit -= head.cost;
        Queued taken = std::move(head);
        queue.pop_front();
        dispatch(std::move(taken), scheduler);
        dispatched_any = true;
      }
      if (queue.empty()) deficit = 0;
    }
    rr_cursor_ = order.front() + 1;

    if (active_.size() >= options_.max_concurrent) return;
    if (!dispatched_any) {
      // One more pass only helps if some compatible head is waiting purely
      // on deficit; conflicted heads need a completion, not another pass.
      bool starved = false;
      for (const auto& [t, q] : queues_) {
        if (q.empty()) continue;
        const auto d = deficit_.find(t);
        const std::size_t have = d == deficit_.end() ? 0 : d->second;
        if (have < q.front().cost && running_.compatible(q.front().fp)) {
          starved = true;
          break;
        }
      }
      if (!starved) return;
    }
  }
}

void IntentService::close_commit(Active a) {
  // The epilogue may pump the event queue (readback verification,
  // reconciliation) — in-flight commits advance meanwhile; they are polled
  // again on the next sweep.
  const sched::TransactionReport& rep = a.txn->finish_commit();
  note_transition(active_.size() + 1);
  running_.remove(a.intent_id);
  TenantStats& ts = report_.tenants[a.tenant];
  ++ts.completed;
  ++report_.completed;
  ts.requests_served += a.cost;
  if (!rep.committed) {
    ++ts.failed_commits;
    ++report_.failed_commits;
  }
  const SimDuration latency = network_.now() - a.submitted;
  ts.latency_ms.push_back(latency.ms());
  if (options_.on_commit) options_.on_commit(a.tenant, a.intent_id, rep);
  if (auto* tele = network_.telemetry()) {
    tele->metrics.counter("service.completed").inc();
    if (!rep.committed) {
      tele->metrics.counter("service.failed_commits").inc();
    }
    tele->metrics.histogram("service.intent_latency_ms", kMsBounds)
        .observe(latency.ms());
    tele->trace.span(
        "service", "intent", telemetry::TraceCollector::kControllerLane,
        a.dispatched, network_.now(),
        {telemetry::arg("tenant", std::uint64_t{a.tenant}),
         telemetry::arg("intent", a.intent_id),
         telemetry::arg("committed", rep.committed)});
    tele->metrics.gauge("service.active").set(static_cast<double>(active_.size()));
  }
}

bool IntentService::finish_done() {
  bool any = false;
  for (std::size_t i = 0; i < active_.size();) {
    if (!active_[i].txn->exec_done()) {
      ++i;
      continue;
    }
    Active a = std::move(active_[i]);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    close_commit(std::move(a));
    any = true;
  }
  return any;
}

void IntentService::run(sched::UpdateScheduler& scheduler) {
  dispatch_round(scheduler);
  while (!active_.empty()) {
    if (finish_done()) {
      dispatch_round(scheduler);
      continue;
    }
    if (!network_.step()) {
      // Queue drained with executions still open (possible only with the
      // executor's recovery layer disabled, under faults): close them
      // as-is — their reports account the stranded requests as lost.
      log::warn("service: event queue drained with " +
                std::to_string(active_.size()) + " commit(s) still open");
      while (!active_.empty() && !finish_done()) {
        Active a = std::move(active_.front());
        active_.erase(active_.begin());
        close_commit(std::move(a));
      }
      dispatch_round(scheduler);
    }
  }
  idle_at_ = network_.now();
}

const ServiceReport& IntentService::report() {
  for (auto& [tenant, ts] : report_.tenants) {
    std::sort(ts.latency_ms.begin(), ts.latency_ms.end());
    ts.latency_p50_ms = percentile(ts.latency_ms, 0.50);
    ts.latency_p95_ms = percentile(ts.latency_ms, 0.95);
    ts.latency_p99_ms = percentile(ts.latency_ms, 0.99);
  }

  // Jain's fairness index over per-tenant service received.
  double sum = 0;
  double sum_sq = 0;
  std::size_t n = 0;
  for (const auto& [tenant, ts] : report_.tenants) {
    if (ts.submitted == 0) continue;
    const auto x = static_cast<double>(ts.requests_served);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  report_.fairness_index =
      (n == 0 || sum_sq == 0) ? 1.0
                              : (sum * sum) / (static_cast<double>(n) * sum_sq);
  report_.avg_concurrency = busy_ns_ > 0 ? weighted_active_ns_ / busy_ns_ : 0;
  report_.makespan = saw_first_submit_ ? idle_at_ - first_submit_ : SimDuration{};

  if (auto* tele = network_.telemetry()) {
    auto& reg = tele->metrics;
    reg.gauge("service.fairness_index").set(report_.fairness_index);
    reg.gauge("service.avg_concurrency").set(report_.avg_concurrency);
    reg.gauge("service.max_concurrency")
        .set(static_cast<double>(report_.max_concurrency));
    reg.gauge("service.max_queue_depth")
        .set(static_cast<double>(report_.max_queue_depth));
  }
  return report_;
}

}  // namespace tango::service
