#include "cluster/write_path.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/wire.h"
#include "storage/shard_split.h"

namespace hyperion {
namespace cluster {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LogFilePath(const std::string& dir, uint64_t shard) {
  return dir + "/shard_" + std::to_string(shard) + ".log";
}

}  // namespace

// ---- ShardWriteLog -------------------------------------------------------

Status ShardWriteLog::Open(const std::string& dir, uint64_t shard_count) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create write-log dir '" + dir + "'");
  }
  MutexLock lock(mu_);
  dir_ = dir;
  for (uint64_t shard = 0; shard < shard_count; ++shard) {
    const std::string path = LogFilePath(dir, shard);
    // Only a log that does not exist means "no entries persisted for
    // this shard yet".  A log that exists but cannot be opened or read —
    // a permissions or filesystem fault, or the path occupied by a
    // directory (which ifstream happily "opens") — must fail Open
    // loudly: treating it as empty would silently replay this replica
    // from nothing and re-serve state anti-entropy believes it has.
    struct ::stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) continue;
      return Status::IoError("cannot stat write log '" + path + "'");
    }
    if (!S_ISREG(st.st_mode)) {
      return Status::IoError("write log '" + path +
                             "' is not a regular file");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot open write log '" + path + "'");
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad()) {
      return Status::IoError("cannot read write log '" + path + "'");
    }
    std::string buf = bytes.str();
    size_t pos = 0;
    bool torn = false;
    while (pos < buf.size()) {
      Result<wire::FrameView> frame =
          wire::PeekFrame(std::string_view(buf).substr(pos));
      if (!frame.ok() || !frame.value().complete) {
        // A torn tail (crash mid-append): everything before it is
        // intact.  The fragment must be cut off, not just skipped —
        // otherwise the next Append writes after it and every entry
        // from here on is unreachable at the following Open.
        torn = true;
        break;
      }
      HYP_ASSIGN_OR_RETURN(Message msg,
                           wire::DecodeMessage(frame.value().payload));
      const auto* entry = std::get_if<WriteSliceMsg>(&msg.payload);
      if (entry == nullptr) {
        return Status::InvalidArgument("write log '" +
                                       LogFilePath(dir, shard) +
                                       "' holds a non-write-slice frame");
      }
      entries_[entry->shard].emplace(entry->shard_version, *entry);
      pos += frame.value().consumed;
    }
    if (torn && ::truncate(LogFilePath(dir, shard).c_str(),
                           static_cast<off_t>(pos)) != 0) {
      return Status::IoError("cannot truncate torn write log '" +
                             LogFilePath(dir, shard) + "'");
    }
  }
  return Status::OK();
}

uint64_t ShardWriteLog::VersionOf(uint64_t shard) const {
  MutexLock lock(mu_);
  uint64_t version = 0;
  auto floor = floors_.find(shard);
  if (floor != floors_.end()) version = floor->second;
  auto it = entries_.find(shard);
  if (it != entries_.end() && !it->second.empty()) {
    version = std::max(version, it->second.rbegin()->first);
  }
  return version;
}

std::vector<std::pair<uint64_t, uint64_t>> ShardWriteLog::Versions() const {
  MutexLock lock(mu_);
  // Floors and entries both advertise a shard's version; a shard may
  // appear in either map alone, so merge rather than iterate one.
  std::map<uint64_t, uint64_t> merged(floors_);
  for (const auto& [shard, log] : entries_) {
    if (log.empty()) continue;
    uint64_t& v = merged[shard];
    v = std::max(v, log.rbegin()->first);
  }
  return {merged.begin(), merged.end()};
}

void ShardWriteLog::SetFloor(uint64_t shard, uint64_t version) {
  MutexLock lock(mu_);
  uint64_t& floor = floors_[shard];
  floor = std::max(floor, version);
}

Status ShardWriteLog::Append(const WriteSliceMsg& entry) {
  MutexLock lock(mu_);
  auto& log = entries_[entry.shard];
  uint64_t current = log.empty() ? 0 : log.rbegin()->first;
  auto floor = floors_.find(entry.shard);
  if (floor != floors_.end()) current = std::max(current, floor->second);
  // Monotonic only: a gap is legal (it holds sequences burned by failed
  // writes — each slice is full shard state, so nothing is lost), but a
  // replay at or below the current version would fork history.
  if (entry.shard_version <= current) {
    return Status::Internal(
        "write log append not monotonic: shard " +
        std::to_string(entry.shard) + " at version " +
        std::to_string(current) + ", entry is " +
        std::to_string(entry.shard_version));
  }
  if (!dir_.empty()) {
    // Durable before visible: a crash between the append and the map
    // insert replays the entry at the next Open, which is idempotent.
    Message msg;
    msg.payload = entry;
    std::string frame;
    wire::AppendFrame(wire::EncodeMessage(msg), 0, &frame);
    std::ofstream out(LogFilePath(dir_, entry.shard),
                      std::ios::binary | std::ios::app);
    if (!out || !out.write(frame.data(),
                           static_cast<std::streamsize>(frame.size()))
                     .flush()) {
      return Status::IoError("cannot append to write log '" +
                             LogFilePath(dir_, entry.shard) + "'");
    }
  }
  log.emplace(entry.shard_version, entry);
  return Status::OK();
}

Result<WriteSliceMsg> ShardWriteLog::EntryAt(uint64_t shard,
                                             uint64_t version) const {
  MutexLock lock(mu_);
  auto it = entries_.find(shard);
  if (it != entries_.end()) {
    auto entry = it->second.find(version);
    if (entry != it->second.end()) return entry->second;
  }
  return Status::NotFound("write log has no entry for shard " +
                          std::to_string(shard) + " version " +
                          std::to_string(version));
}

Result<WriteSliceMsg> ShardWriteLog::EntryAfter(uint64_t shard,
                                                uint64_t version) const {
  MutexLock lock(mu_);
  auto it = entries_.find(shard);
  if (it != entries_.end()) {
    auto entry = it->second.upper_bound(version);
    if (entry != it->second.end()) return entry->second;
  }
  return Status::NotFound("write log has no entry for shard " +
                          std::to_string(shard) + " above version " +
                          std::to_string(version));
}

// ---- ClusterTableSink ----------------------------------------------------

ClusterTableSink::ClusterTableSink(std::string self, Network* net,
                                   const PlacementState* placement,
                                   const MembershipTracker* membership,
                                   Options options)
    : self_(std::move(self)),
      net_(net),
      placement_(placement),
      membership_(membership),
      options_(options) {}

uint64_t ClusterTableSink::sequence() const {
  MutexLock lock(mu_);
  return write_seq_;
}

uint64_t ClusterTableSink::committed_sequence() const {
  MutexLock lock(mu_);
  return committed_seq_;
}

void ClusterTableSink::SendAttempt(Target* target, int64_t now_us) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_request_id_++;
    pending_.emplace(id, target->slot);
  }
  target->ids.push_back(id);
  ++target->attempts;
  target->in_flight = true;
  target->attempt_sent_us = now_us;
  reg.GetCounter("cluster.write.slices_sent")->Add();
  if (target->attempts > 1) {
    reg.GetCounter("cluster.write.retries")->Add();
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.write.retry";
    ev.detail = target->slice->table_name + "#" +
                std::to_string(target->shard) + " -> " + target->replica +
                " (attempt " + std::to_string(target->attempts) + ")";
    ev.value = static_cast<int64_t>(target->shard);
    obs::SessionTracer::Default().Record(std::move(ev));
  }
  Message msg;
  msg.from = self_;
  msg.to = target->replica;
  WriteSliceMsg ws = *target->slice;
  ws.request_id = id;
  msg.payload = std::move(ws);
  // mu_ is a leaf: the network's own lock is taken with it released.
  Status sent = net_->Send(std::move(msg));
  if (!sent.ok()) {
    // No route to the replica: spend the attempt, back off, retry.
    target->in_flight = false;
    if (target->attempts >= options_.attempts_per_replica) {
      target->spent = true;
    } else {
      target->send_gate_us =
          now_us + (options_.backoff_base_us << (target->attempts - 1));
    }
  }
}

Result<ClusterTableSink::WriteReport> ClusterTableSink::Apply(
    const MappingTable& table, uint64_t table_version) {
  // One writer at a time: a second caller queues here instead of
  // racing the first for a sequence number.
  MutexLock apply_lock(apply_mu_);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  reg.GetCounter("cluster.write.requests")->Add();
  const int64_t t0 = SteadyNowUs();
  const int64_t deadline = t0 + options_.write_timeout_us;
  // One placement snapshot per write: a transition committing mid-Apply
  // does not reshuffle this write's targets (its slices carry the epoch
  // they were fanned out under, so receivers can tell).
  const PlacementState::Snapshot committed = placement_->Committed();
  const PlacementState::Snapshot pending = placement_->Pending();
  const ShardRing& ring = *committed.ring;
  const uint64_t shard_count = ring.shard_count();
  uint64_t seq, committed_floor;
  {
    // Reserve the sequence up front: if this write fails it is BURNED,
    // never reused — some replica may have applied it on a lost or
    // post-deadline ack, and a different write at the same sequence
    // would be swallowed there as a "duplicate" — permanent divergence
    // at identical versions.  The floor tells replicas
    // which gaps are safe to jump (burned) vs missing committed writes.
    MutexLock lock(mu_);
    seq = ++write_seq_;
    committed_floor = committed_seq_;
  }

  // One slice per shard, empty shards included: a write may delete a
  // shard's rows, and shipping every shard is what keeps all shard
  // versions in lockstep with the global write sequence.
  std::vector<uint64_t> all_shards;
  all_shards.reserve(shard_count);
  for (uint64_t s = 0; s < shard_count; ++s) all_shards.push_back(s);
  std::map<uint64_t, ShardSlice> slices = SliceTable(
      table, table_version,
      [&ring](const std::string& key) { return ring.ShardForKey(key); },
      all_shards);
  std::map<uint64_t, WriteSliceMsg> shard_msgs;
  for (auto& [shard, slice] : slices) {
    WriteSliceMsg ws;
    ws.origin = self_;
    ws.table_name = table.name();
    ws.shard = shard;
    ws.shard_version = seq;
    ws.committed_floor = committed_floor;
    ws.table_version = table_version;
    ws.total_rows = slice.total_rows;
    ws.x_schema = std::move(slice.x_schema);
    ws.y_schema = std::move(slice.y_schema);
    ws.row_indices = std::move(slice.row_indices);
    ws.rows = std::move(slice.rows);
    ws.ring_epoch = committed.epoch;
    shard_msgs.emplace(shard, std::move(ws));
  }

  // Every committed replica of every shard is a quorum-counted delivery
  // target; mid-transition, pending-only owners join the fan-out
  // best-effort (the union-write invariant: a write landed during a
  // rebalance reaches the new owners too, so no committed write is lost
  // when the epoch flips).
  std::vector<Target> targets;
  for (uint64_t s = 0; s < shard_count; ++s) {
    const std::vector<std::string>& owners = ring.OwnersForShard(s);
    for (const std::string& owner : owners) {
      Target t;
      t.shard = s;
      t.replica = owner;
      t.slice = &shard_msgs.at(s);
      t.slot = std::make_shared<Pending>();
      t.send_gate_us = t0;
      targets.push_back(std::move(t));
    }
    if (pending.ring == nullptr) continue;
    for (const std::string& owner : pending.ring->OwnersForShard(s)) {
      if (std::find(owners.begin(), owners.end(), owner) != owners.end()) {
        continue;  // already a committed target
      }
      Target t;
      t.shard = s;
      t.replica = owner;
      t.slice = &shard_msgs.at(s);
      t.slot = std::make_shared<Pending>();
      t.send_gate_us = t0;
      t.counted = false;
      targets.push_back(std::move(t));
    }
  }

  // Acks required per shard.  Re-evaluated every wake: with quorum 0
  // ("all alive") a replica that dies mid-write and transitions to down
  // stops being required — the write commits without it and anti-entropy
  // repairs it later.
  auto required_for = [&](uint64_t shard) -> size_t {
    const std::vector<std::string>& owners = ring.OwnersForShard(shard);
    if (options_.quorum > 0) {
      return std::min<size_t>(options_.quorum, owners.size());
    }
    size_t alive = 0;
    for (const std::string& owner : owners) {
      if (membership_ == nullptr ||
          membership_->StateOf(owner) != MemberState::kDown) {
        ++alive;
      }
    }
    return std::max<size_t>(1, alive);
  };

  auto erase_pending = [&]() {
    MutexLock lock(mu_);
    for (const Target& t : targets) {
      for (uint64_t id : t.ids) pending_.erase(id);
    }
  };
  auto unacked_of = [&](uint64_t shard) {
    std::string out;
    for (const Target& t : targets) {
      if (t.shard != shard || t.acked || !t.counted) continue;
      if (!out.empty()) out += ", ";
      out += "storage node '" + t.replica + "' unacked";
    }
    return out;
  };
  auto fail = [&](uint64_t shard, const std::string& why) -> Status {
    erase_pending();
    reg.GetCounter("cluster.write.failed")->Add();
    obs::TraceEvent ev;
    ev.peer = self_;
    ev.kind = "cluster.write.failed";
    ev.detail = table.name() + "#" + std::to_string(shard) + " " + why +
                ": " + unacked_of(shard) + " (seq " + std::to_string(seq) +
                " burned)";
    ev.value = static_cast<int64_t>(shard);
    obs::SessionTracer::Default().Record(std::move(ev));
    return Status::Unavailable("write seq " + std::to_string(seq) +
                               " of table '" + table.name() + "' shard " +
                               std::to_string(shard) + " " + why + ": " +
                               unacked_of(shard));
  };

  while (true) {
    int64_t now = SteadyNowUs();
    int64_t next_wake = deadline;
    std::vector<Target*> sends;
    uint64_t seen_acks = 0;
    {
      MutexLock lock(mu_);
      seen_acks = acks_;
      for (Target& t : targets) {
        if (t.acked || t.spent) continue;
        if (t.slot->done) {
          const WriteAckMsg& ack = t.slot->response;
          if (ack.applied != 0) {
            t.acked = true;
            t.in_flight = false;
            reg.GetCounter("cluster.write.acks")->Add();
            continue;
          }
          // The replica refused — stale (missing earlier writes) or a
          // storage-side error.  Retry with a fresh slot: anti-entropy
          // may catch it up between attempts.
          t.slot = std::make_shared<Pending>();
          t.in_flight = false;
          if (t.attempts >= options_.attempts_per_replica) {
            t.spent = true;
          } else {
            t.send_gate_us =
                now + (options_.backoff_base_us << (t.attempts - 1));
          }
          continue;
        }
        if (t.in_flight) {
          int64_t expiry = t.attempt_sent_us + options_.replica_timeout_us;
          if (now >= expiry) {
            t.in_flight = false;
            if (t.attempts >= options_.attempts_per_replica) {
              t.spent = true;
            } else {
              t.send_gate_us =
                  now + (options_.backoff_base_us << (t.attempts - 1));
            }
          } else {
            next_wake = std::min(next_wake, expiry);
          }
        }
        if (!t.in_flight && !t.spent) {
          if (now >= t.send_gate_us) {
            sends.push_back(&t);
          } else {
            next_wake = std::min(next_wake, t.send_gate_us);
          }
        }
      }
    }

    // Quorum check (acked/spent are Apply-thread-only state).  Only
    // committed owners count; pending-only targets never gate commit.
    bool all_quorate = true;
    for (uint64_t s = 0; s < shard_count; ++s) {
      size_t acked = 0, resolved = 0, total = 0;
      for (const Target& t : targets) {
        if (t.shard != s || !t.counted) continue;
        ++total;
        if (t.acked) ++acked;
        if (t.acked || t.spent) ++resolved;
      }
      size_t required = required_for(s);
      if (acked >= required) continue;
      all_quorate = false;
      if (resolved == total) {
        // Nothing left to wait for and still short of quorum.
        return fail(s, "failed: quorum " + std::to_string(required) +
                           " not met with " + std::to_string(acked) +
                           " acks");
      }
    }
    if (all_quorate) break;
    if (SteadyNowUs() >= deadline) {
      for (uint64_t s = 0; s < shard_count; ++s) {
        size_t acked = 0;
        for (const Target& t : targets) {
          if (t.shard == s && t.counted && t.acked) ++acked;
        }
        if (acked < required_for(s)) {
          return fail(s, "timed out after " +
                             std::to_string(options_.write_timeout_us / 1000) +
                             "ms");
        }
      }
    }
    if (!sends.empty()) {
      for (Target* t : sends) SendAttempt(t, now);
      continue;  // recompute deadlines around the new attempts
    }
    if (before_wait_hook_) before_wait_hook_();
    MutexLock lock(mu_);
    // Wake on an ack newer than the scan (its count was read under the
    // scan's lock, so an ack landing since then is not missed) or at the
    // next deadline; both loop back to re-derive deadlines and
    // acknowledged targets from scratch.
    const bool acked = cv_.WaitFor(
        mu_,
        std::chrono::microseconds(std::max<int64_t>(next_wake - now, 1000)),
        [&]() REQUIRES(mu_) { return acks_ != seen_acks; });
    (void)acked;
  }
  erase_pending();

  WriteReport report;
  report.sequence = seq;
  report.table_version = table_version;
  std::set<std::string> lagging;
  for (const Target& t : targets) {
    // Pending-only targets are invisible in the report: their catch-up
    // is the handoff protocol's job, not anti-entropy's.
    if (!t.counted) continue;
    if (t.acked) {
      ++report.acks;
    } else {
      lagging.insert(t.replica);
    }
  }
  report.lagging.assign(lagging.begin(), lagging.end());
  {
    // write_seq_ already advanced at entry; only the commit point moves.
    MutexLock lock(mu_);
    committed_seq_ = seq;
  }

  int64_t elapsed_us = SteadyNowUs() - t0;
  reg.GetCounter("cluster.write.committed")->Add();
  reg.GetHistogram("cluster.write.latency_us", obs::LatencyBoundsUs())
      ->Observe(elapsed_us);
  obs::TraceEvent ev;
  ev.peer = self_;
  ev.kind = "cluster.write.committed";
  ev.detail = table.name() + "@v" + std::to_string(table_version) + " seq " +
              std::to_string(seq) + " acks " + std::to_string(report.acks) +
              (report.lagging.empty()
                   ? ""
                   : " lagging " + std::to_string(report.lagging.size()));
  ev.value = static_cast<int64_t>(seq);
  obs::SessionTracer::Default().Record(std::move(ev));
  return report;
}

void ClusterTableSink::OnWriteAck(const WriteAckMsg& msg) {
  MutexLock lock(mu_);
  auto it = pending_.find(msg.request_id);
  if (it == pending_.end()) return;  // write already finished or failed
  if (it->second->done) return;      // an earlier attempt's ack won
  it->second->response = msg;
  it->second->done = true;
  ++acks_;
  cv_.NotifyAll();
}

void ClusterTableSink::SetBeforeWaitHookForTest(std::function<void()> hook) {
  before_wait_hook_ = std::move(hook);
}

}  // namespace cluster
}  // namespace hyperion
