#include "cluster/remote_tables.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/shard_split.h"

namespace hyperion {
namespace cluster {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ShardSlice SliceOfMsg(const ShardRowsMsg& msg) {
  ShardSlice slice;
  slice.table_name = msg.table_name;
  slice.shard = msg.shard;
  slice.version = msg.version;
  slice.total_rows = msg.total_rows;
  slice.x_schema = msg.x_schema;
  slice.y_schema = msg.y_schema;
  slice.row_indices = msg.row_indices;
  slice.rows = msg.rows;
  return slice;
}

// Distinct owners tried so far, in first-tried order (the attempt cycle
// walks candidates round-robin).
std::vector<std::string> TriedOwners(
    const std::vector<std::string>& candidates, size_t attempts) {
  std::vector<std::string> tried;
  for (size_t i = 0; i < attempts && i < candidates.size(); ++i) {
    tried.push_back(candidates[i]);
  }
  return tried;
}

// "storage node 'a' unreachable, storage node 'b' unreachable" — every
// dead replica named, the per-node phrase kept stable for drills that
// grep for it.
std::string NameDeadReplicas(const std::vector<std::string>& unreachable,
                             const std::vector<std::string>& down) {
  std::string out;
  for (const std::string& node : unreachable) {
    if (!out.empty()) out += ", ";
    out += "storage node '" + node + "' unreachable";
  }
  for (const std::string& node : down) {
    if (!out.empty()) out += ", ";
    out += "storage node '" + node + "' down";
  }
  return out;
}

}  // namespace

ClusterTableSource::ClusterTableSource(std::string self, Network* net,
                                       const PlacementState* placement,
                                       const MembershipTracker* membership,
                                       Options options)
    : self_(std::move(self)),
      net_(net),
      placement_(placement),
      membership_(membership),
      options_(options) {}

void ClusterTableSource::SendAttempt(const std::string& name,
                                     ShardState* state, int64_t now_us,
                                     bool hedge) const {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const std::string& owner =
      state->candidates[state->next_attempt % state->candidates.size()];
  const bool first = state->next_attempt == 0;
  uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_request_id_++;
    pending_.emplace(id, state->slot);
  }
  state->ids.push_back(id);
  ++state->next_attempt;
  state->in_flight = true;
  state->attempt_sent_us = now_us;
  if (state->first_sent_us < 0) state->first_sent_us = now_us;
  if (hedge) state->hedged = true;

  reg.GetCounter("cluster.replica.attempts")->Add();
  if (first) {
    reg.GetCounter("cluster.shard_fetches")->Add();
  } else if (hedge) {
    reg.GetCounter("cluster.failover.hedged")->Add();
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.hedge";
    ev.detail = name + "#" + std::to_string(state->shard) + " -> " + owner;
    ev.value = static_cast<int64_t>(state->shard);
    obs::SessionTracer::Default().Record(std::move(ev));
  } else {
    reg.GetCounter("cluster.failover.reroutes")->Add();
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.failover";
    ev.detail = name + "#" + std::to_string(state->shard) +
                (state->failed.empty() ? "" : " " + state->failed.back()) +
                " -> " + owner;
    ev.value = static_cast<int64_t>(state->shard);
    obs::SessionTracer::Default().Record(std::move(ev));
  }

  Message msg;
  msg.from = self_;
  msg.to = owner;
  ShardFetchMsg fetch;
  fetch.request_id = id;
  fetch.table_name = name;
  fetch.shard = state->shard;
  fetch.ring_epoch = state->ring_epoch;
  msg.payload = std::move(fetch);
  // mu_ is a leaf: the network's own lock is taken with it released.
  Status sent = net_->Send(std::move(msg));
  if (!sent.ok()) {
    // A synchronous send failure (no route to the peer) is an instant
    // failover trigger, not a timeout's worth of waiting.
    reg.GetCounter("cluster.shard_fetch_failures")->Add();
    state->in_flight = false;
    if (std::find(state->failed.begin(), state->failed.end(), owner) ==
        state->failed.end()) {
      state->failed.push_back(owner);
    }
  }
}

Result<VersionedTable> ClusterTableSource::Fetch(
    const std::string& name) const {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  // Stale-epoch rejections re-resolve placement and retry: the fresh
  // FetchOnce snapshots the placement again, which by then has adopted
  // (or is one heartbeat away from adopting) the rejecting node's newer
  // ring.  Bounded — anything else still failing after the retries is a
  // real error.
  constexpr int kEpochRetries = 3;
  for (int attempt = 0;; ++attempt) {
    Result<VersionedTable> result = FetchOnce(name);
    if (result.ok() || attempt >= kEpochRetries) return result;
    const Status& status = result.status();
    if (status.code() != StatusCode::kFailedPrecondition ||
        status.message().find("stale ring epoch") == std::string::npos) {
      return result;
    }
    reg.GetCounter("cluster.epoch.refetches")->Add();
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.epoch.refetch";
    ev.detail = name + " (attempt " + std::to_string(attempt + 1) + ")";
    obs::SessionTracer::Default().Record(std::move(ev));
    // The adoption travels on heartbeats; give one a moment to land.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.backoff_base_us));
  }
}

Result<VersionedTable> ClusterTableSource::FetchOnce(
    const std::string& name) const {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  {
    MutexLock lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) {
      reg.GetCounter("cluster.table_cache_hits")->Add();
      return it->second.table;
    }
  }
  reg.GetCounter("cluster.table_cache_misses")->Add();
  const int64_t t0 = SteadyNowUs();
  const int64_t overall_deadline = t0 + options_.fetch_timeout_us;
  // Reads are served by COMMITTED owners throughout a transition — that
  // placement is what every replica still holds slices for.
  const PlacementState::Snapshot placement = placement_->Committed();
  const ShardRing& ring = *placement.ring;
  const uint64_t shard_count = ring.shard_count();

  // Build the per-shard failover plans: replicas ordered alive (or
  // not-yet-heard) first, then suspect; members already marked down are
  // skipped — they only reappear in the error if the live set fails too.
  std::vector<ShardState> states(shard_count);
  for (uint64_t s = 0; s < shard_count; ++s) {
    ShardState& st = states[s];
    st.shard = s;
    st.ring_epoch = placement.epoch;
    st.slot = std::make_shared<Pending>();
    st.send_gate_us = t0;
    std::vector<std::string> suspects;
    for (const std::string& owner : ring.OwnersForShard(s)) {
      MemberState state = membership_ == nullptr ? MemberState::kAlive
                                                 : membership_->StateOf(owner);
      if (state == MemberState::kDown) {
        reg.GetCounter("cluster.replica.skipped_down")->Add();
        st.skipped_down.push_back(owner);
        // Member-named trace, matching the convention of every other
        // cluster event: which replica was passed over, for which shard.
        obs::TraceEvent ev;
        ev.peer = self_;
        ev.kind = "cluster.replica.skipped_down";
        ev.detail = name + "#" + std::to_string(s) + " skipped " + owner;
        ev.value = static_cast<int64_t>(s);
        obs::SessionTracer::Default().Record(std::move(ev));
      } else if (state == MemberState::kSuspect) {
        suspects.push_back(owner);
      } else {
        st.candidates.push_back(owner);  // alive or unknown
      }
    }
    st.candidates.insert(st.candidates.end(), suspects.begin(),
                         suspects.end());
  }

  auto erase_pending = [&]() {
    MutexLock lock(mu_);
    for (const ShardState& st : states) {
      for (uint64_t id : st.ids) pending_.erase(id);
    }
  };
  auto fail_shard = [&](const ShardState& st,
                        const std::string& why) -> Status {
    reg.GetCounter("cluster.failover.exhausted")->Add();
    std::vector<std::string> dead = TriedOwners(st.candidates,
                                                st.next_attempt);
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.shard_unreachable";
    ev.detail = NameDeadReplicas(dead, st.skipped_down);
    ev.value = static_cast<int64_t>(st.shard);
    obs::SessionTracer::Default().Record(std::move(ev));
    return Status::Unavailable(
        "shard " + std::to_string(st.shard) + " of table '" + name + "' " +
        why + ": " + NameDeadReplicas(dead, st.skipped_down));
  };

  const size_t rounds =
      options_.attempts_per_replica < 1 ? 1 : options_.attempts_per_replica;
  while (true) {
    int64_t now = SteadyNowUs();
    bool all_done = true;
    int64_t next_wake = overall_deadline;
    std::vector<std::pair<ShardState*, bool>> sends;  // (shard, hedge?)
    Status terminal = Status::OK();
    const ShardState* exhausted = nullptr;
    uint64_t seen_replies = 0;
    {
      MutexLock lock(mu_);
      seen_replies = replies_;
      for (ShardState& st : states) {
        if (st.slot->done) {
          const ShardRowsMsg& response = st.slot->response;
          if (!response.error.empty()) {
            reg.GetCounter("cluster.shard_fetch_failures")->Add();
            StatusCode code = response.error_code == 0
                                  ? StatusCode::kInternal
                                  : static_cast<StatusCode>(
                                        response.error_code);
            // Replicas hold the same data: a data error from one would
            // come back from all, so it is terminal, not a failover.
            terminal = Status(
                code, "storage node '" + response.node + "' failed shard " +
                          std::to_string(st.shard) + " of table '" + name +
                          "': " + response.error);
            break;
          }
          continue;  // resolved with rows
        }
        all_done = false;
        if (st.candidates.empty()) {
          exhausted = &st;
          break;
        }
        const size_t total_attempts = rounds * st.candidates.size();
        if (st.in_flight) {
          int64_t expiry = st.attempt_sent_us + options_.replica_timeout_us;
          if (now >= expiry) {
            // This replica's chance is spent: fail over.
            reg.GetCounter("cluster.shard_fetch_failures")->Add();
            st.in_flight = false;
            const std::string& owner =
                st.candidates[(st.next_attempt - 1) % st.candidates.size()];
            if (std::find(st.failed.begin(), st.failed.end(), owner) ==
                st.failed.end()) {
              st.failed.push_back(owner);
            }
            if (st.next_attempt % st.candidates.size() == 0) {
              // A full round failed: exponential backoff before the next.
              int64_t round = static_cast<int64_t>(
                  st.next_attempt / st.candidates.size());
              st.send_gate_us =
                  now + (options_.backoff_base_us << (round - 1));
            } else {
              st.send_gate_us = now;  // next replica immediately
            }
          } else {
            next_wake = std::min(next_wake, expiry);
            if (options_.hedge_delay_us > 0 && !st.hedged &&
                st.next_attempt < total_attempts &&
                st.candidates.size() > 1) {
              int64_t hedge_at = st.attempt_sent_us + options_.hedge_delay_us;
              if (now >= hedge_at) {
                sends.emplace_back(&st, /*hedge=*/true);
              } else {
                next_wake = std::min(next_wake, hedge_at);
              }
            }
          }
        }
        if (!st.in_flight) {
          if (st.next_attempt >= total_attempts) {
            exhausted = &st;
            break;
          }
          if (now >= st.send_gate_us) {
            sends.emplace_back(&st, /*hedge=*/false);
          } else {
            next_wake = std::min(next_wake, st.send_gate_us);
          }
        }
      }
    }
    if (!terminal.ok()) {
      erase_pending();
      return terminal;
    }
    if (exhausted != nullptr) {
      erase_pending();
      return fail_shard(*exhausted,
                        "unavailable: replica set exhausted after " +
                            std::to_string(exhausted->next_attempt) +
                            " attempts");
    }
    if (all_done) break;
    if (now >= overall_deadline) {
      // Out of budget with shards unresolved: report the first one.
      erase_pending();
      for (const ShardState& st : states) {
        MutexLock lock(mu_);
        if (!st.slot->done) {
          return fail_shard(
              st, "unavailable: no replica answered within " +
                      std::to_string(options_.fetch_timeout_us / 1000) +
                      "ms");
        }
      }
    }
    if (!sends.empty()) {
      for (auto& [st, hedge] : sends) SendAttempt(name, st, now, hedge);
      continue;  // recompute deadlines around the new attempts
    }
    if (before_wait_hook_) before_wait_hook_();
    MutexLock lock(mu_);
    // Wake on a reply newer than the scan (its count was read under the
    // scan's lock, so a reply landing since then is not missed) or at the
    // next deadline; both loop back to re-derive deadlines and completed
    // slots from scratch.
    const bool replied = cv_.WaitFor(
        mu_,
        std::chrono::microseconds(std::max<int64_t>(next_wake - now, 1000)),
        [&]() REQUIRES(mu_) { return replies_ != seen_replies; });
    (void)replied;
  }
  erase_pending();

  std::vector<ShardSlice> owned;
  std::set<std::string> sources;
  bool any_failover = false;
  owned.reserve(shard_count);
  {
    MutexLock lock(mu_);
    for (ShardState& st : states) {
      const ShardRowsMsg& response = st.slot->response;
      reg.GetCounter("cluster.shard_rows_fetched")->Add(response.rows.size());
      sources.insert(response.node);
      if (st.next_attempt > 1) any_failover = true;
      owned.push_back(SliceOfMsg(response));
    }
  }
  std::vector<const ShardSlice*> views;
  views.reserve(owned.size());
  for (const ShardSlice& s : owned) views.push_back(&s);
  HYP_ASSIGN_OR_RETURN(MappingTable table, AssembleTable(name, views));

  VersionedTable vt;
  vt.version = owned.empty() ? 0 : owned.front().version;
  vt.table = std::make_shared<const MappingTable>(std::move(table));

  int64_t elapsed_us = SteadyNowUs() - t0;
  reg.GetHistogram("cluster.shard_fetch_latency_us", obs::LatencyBoundsUs())
      ->Observe(elapsed_us);
  if (any_failover) {
    // How long a degraded fetch took end to end — the failover latency
    // the R-sweep in fig_cluster reports.
    reg.GetHistogram("cluster.failover.latency_us", obs::LatencyBoundsUs())
        ->Observe(elapsed_us);
  }
  obs::TraceEvent ev;
  ev.peer = self_;
  ev.kind = "cluster.table_fetched";
  ev.detail = name;
  ev.value = static_cast<int64_t>(vt.table->size());
  obs::SessionTracer::Default().Record(std::move(ev));

  MutexLock lock(mu_);
  for (uint64_t s = 0; s < shard_count; ++s) {
    stats_.push_back(ShardStat{name, s, states[s].slot->response.node,
                               states[s].slot->response.rows.size()});
  }
  // A concurrent Fetch of the same table may have beaten us here; both
  // assembled from the same logical slices, so either copy serves.
  CacheEntry entry{std::move(vt), std::move(sources)};
  return cache_.emplace(name, std::move(entry)).first->second.table;
}

void ClusterTableSource::OnShardRows(const ShardRowsMsg& msg) {
  MutexLock lock(mu_);
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) return;  // fetch already failed or finished
  if (it->second->done) return;      // a faster replica (or hedge) won
  it->second->response = msg;
  it->second->done = true;
  ++replies_;
  cv_.NotifyAll();
}

void ClusterTableSource::SetBeforeWaitHookForTest(std::function<void()> hook) {
  before_wait_hook_ = std::move(hook);
}

void ClusterTableSource::OnMemberDown(const std::string& node) {
  std::vector<std::string> evicted;
  {
    MutexLock lock(mu_);
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.sources.count(node) > 0) {
        evicted.push_back(it->first);
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (evicted.empty()) return;
  obs::MetricRegistry::Default()
      .GetCounter("cluster.replica.cache_evictions")
      ->Add(evicted.size());
  for (std::string& table : evicted) {
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.cache_evicted";
    ev.detail = std::move(table) + " (source " + node + " down)";
    obs::SessionTracer::Default().Record(std::move(ev));
  }
}

void ClusterTableSource::Evict() {
  MutexLock lock(mu_);
  cache_.clear();
}

void ClusterTableSource::EvictTable(const std::string& name) {
  MutexLock lock(mu_);
  cache_.erase(name);
}

std::vector<ClusterTableSource::ShardStat> ClusterTableSource::ShardStats()
    const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cluster
}  // namespace hyperion
