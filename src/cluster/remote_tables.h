// ClusterTableSource: the coordinator's TableSource over the wire, with
// replica-aware failover.
//
// Fetch(name) runs one ShardFetchMsg conversation per shard against the
// shard's replica set (placement from the committed ring of a
// PlacementState snapshot, its epoch stamped into every fetch),
// reassembles the
// original table from the slices (storage/shard_split.h) — byte-identical
// row order included — and caches the assembled table together with the
// set of storage nodes that served it.
//
// Failover policy, per shard:
//
//  * replicas are tried in membership order — alive (and not-yet-heard
//    `unknown`) first, then suspect; members the tracker already marked
//    `down` are skipped outright (and later named in the error if the
//    live set fails too);
//  * each attempt gets its own replica timeout; on timeout or a failed
//    send the fetch *fails over* to the next replica instead of failing
//    the query, cycling through the candidate list for a bounded number
//    of rounds with exponential backoff between rounds;
//  * optionally (hedge_delay_us > 0) a hedged request is fired at the
//    next replica after the hedge delay without giving up on the first —
//    whichever response arrives first wins;
//  * only when every candidate is exhausted does the fetch escalate to
//    kUnavailable, naming *all* dead replicas of the failing shard.
//
// A storage-side application error (e.g. NotFound for an unknown table)
// still travels back in the response's error/error_code fields and is
// rethrown here with its original status code — replicas hold the same
// data, so failing over on a data error would only mask it.  A partial
// table is never returned — AssembleTable refuses anything short of
// exact coverage.
//
// Every failover decision is observable: `cluster.failover.*` /
// `cluster.replica.*` metrics plus `cluster.failover` / `cluster.hedge`
// trace events (docs/METRICS.md).
//
// Threading: Fetch() blocks the calling service worker; OnShardRows()
// is called from the network's event-loop thread; OnMemberDown() from
// the membership sweep timer.  The internal mutex is a leaf (DESIGN.md
// §12): it is never held across Send() or any other lock acquisition.

#ifndef HYPERION_CLUSTER_REMOTE_TABLES_H_
#define HYPERION_CLUSTER_REMOTE_TABLES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/placement.h"
#include "cluster/shard_ring.h"
#include "common/synchronization.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"
#include "storage/table_source.h"

namespace hyperion {
namespace cluster {

/// \brief Coordinator-side table source that fetches shard slices from
/// their replica sets, failing over from dead owners to live ones.
class ClusterTableSource : public TableSource {
 public:
  struct Options {
    int64_t fetch_timeout_us = 5'000'000;    // whole fetch, all shards
    int64_t replica_timeout_us = 1'000'000;  // one replica attempt
    int64_t backoff_base_us = 50'000;        // doubles every retry round
    int64_t hedge_delay_us = 0;              // 0 = hedging off
    int attempts_per_replica = 2;            // retry rounds over the set
  };

  /// \brief `self` is the coordinator's node id (the network peer the
  /// fetches are sent from); `net` must outlive this source and have
  /// `self` registered; `placement` decides replica placement (each
  /// fetch snapshots its committed ring and stamps its epoch into every
  /// ShardFetchMsg); `membership` orders replicas by liveness (nullptr =
  /// treat everyone as alive).  `net`, `placement` and `membership` must
  /// outlive this source.
  ClusterTableSource(std::string self, Network* net,
                     const PlacementState* placement,
                     const MembershipTracker* membership, Options options);

  /// \brief Fetches (or serves from cache) the named table.  Blocks up
  /// to the fetch timeout; kUnavailable names every dead replica of the
  /// shard that exhausted its set.  A storage node rejecting the fetch
  /// as epoch-stale (it committed a newer ring than this fetch resolved
  /// placement under) triggers a bounded re-resolve-and-retry
  /// (`cluster.epoch.refetches`) instead of failing the query.
  Result<VersionedTable> Fetch(const std::string& name) const override;

  /// \brief Routes a ShardRowsMsg response to its waiting Fetch.  Call
  /// from the coordinator's network handler; unknown request ids (e.g.
  /// a response outrunning its abandoned fetch) are dropped.
  void OnShardRows(const ShardRowsMsg& msg);

  /// \brief Membership-change hook: `node` transitioned to `down`.
  /// Drops every cached table whose assembly used `node` as a source, so
  /// a recovered-then-restarted node can never be shadowed by a stale
  /// assembly.  Call from the membership sweep (ClusterNode does).
  void OnMemberDown(const std::string& node);

  /// \brief Drops every cached table, forcing the next Fetch of each
  /// back onto the wire.
  void Evict();

  /// \brief Drops one cached table.  The write path calls this after a
  /// replicated write commits: the next Fetch re-pulls the table at its
  /// new version, which in turn invalidates covers keyed on the old one.
  void EvictTable(const std::string& name);

  /// \brief Rows fetched per (table, shard, serving node) so far — the
  /// per-shard row counts fig_cluster reports.  `owner` is the node that
  /// actually served the slice, which under failover may not be the
  /// primary.
  struct ShardStat {
    std::string table;
    uint64_t shard = 0;
    std::string owner;
    uint64_t rows = 0;
  };
  std::vector<ShardStat> ShardStats() const;

  /// \brief Test seam: `hook` runs on the fetching thread whenever a
  /// fetch has scanned its shards, has nothing to send and is about to
  /// wait for replies.  Set it before the first Fetch.
  void SetBeforeWaitHookForTest(std::function<void()> hook);

 private:
  // One outstanding shard conversation, keyed by request id; retries and
  // hedges of the same shard share the slot, first completed response
  // wins.  The response is copied in under mu_ and the waiting Fetch
  // notified.
  struct Pending {
    ShardRowsMsg response;
    bool done = false;
  };

  // A cached assembled table plus the storage nodes its slices came
  // from (the eviction key for OnMemberDown).
  struct CacheEntry {
    VersionedTable table;
    std::set<std::string> sources;
  };

  // The per-shard failover state machine Fetch() drives.  All times are
  // steady-clock microseconds.
  struct ShardState {
    uint64_t shard = 0;
    uint64_t ring_epoch = 0;              // epoch placement was resolved at
    std::vector<std::string> candidates;  // liveness-ordered replicas
    std::vector<std::string> skipped_down;
    std::vector<std::string> failed;      // candidates that timed out
    std::shared_ptr<Pending> slot;
    std::vector<uint64_t> ids;            // request ids issued so far
    size_t next_attempt = 0;              // index into the attempt cycle
    int64_t first_sent_us = -1;
    int64_t attempt_sent_us = -1;         // latest in-flight attempt
    int64_t send_gate_us = 0;             // backoff: no send before this
    bool in_flight = false;
    bool hedged = false;
    bool exhausted = false;
  };

  // Sends one ShardFetchMsg for `state`'s next candidate.  `hedge`
  // distinguishes a hedged duplicate from a failover.  Registers the
  // request id under mu_, sends with mu_ released.
  void SendAttempt(const std::string& name, ShardState* state, int64_t now_us,
                   bool hedge) const;

  // One fetch conversation against one placement snapshot; Fetch() wraps
  // it with the stale-epoch re-resolution loop.
  Result<VersionedTable> FetchOnce(const std::string& name) const;

  const std::string self_;
  Network* const net_;
  const PlacementState* const placement_;
  const MembershipTracker* const membership_;
  const Options options_;

  mutable Mutex mu_;
  mutable CondVar cv_;
  mutable uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  mutable std::map<uint64_t, std::shared_ptr<Pending>> pending_
      GUARDED_BY(mu_);
  mutable std::map<std::string, CacheEntry> cache_ GUARDED_BY(mu_);
  mutable std::vector<ShardStat> stats_ GUARDED_BY(mu_);
  // Replies accepted so far; a fetch waits for it to move past the count
  // its last scan saw.
  uint64_t replies_ GUARDED_BY(mu_) = 0;
  std::function<void()> before_wait_hook_;
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_REMOTE_TABLES_H_
