// Lost-wakeup regression tests for the coordinator's blocking calls.
//
// ClusterTableSource::Fetch and ClusterTableSink::Apply scan their
// outstanding requests under a lock, release it, and then wait for the
// network thread to deliver replies.  A reply that lands between the scan
// and the wait must wake the caller at once; a lost notification would
// leave it asleep until the replica timeout.  Each test delivers the reply
// exactly inside that window (through the test seam that runs there) and
// requires the call to return long before the replica timeout.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/remote_tables.h"
#include "cluster/shard_ring.h"
#include "cluster/write_path.h"
#include "core/mapping_table.h"
#include "p2p/network_interface.h"

namespace hyperion {
namespace cluster {
namespace {

constexpr int64_t kReplicaTimeoutUs = 3'000'000;
// Well under the replica timeout, well over any scheduling hiccup.
constexpr int64_t kPromptUs = 1'000'000;

// Records every sent message; delivers nothing by itself.
class RecordingNetwork : public Network {
 public:
  Status RegisterPeer(const std::string&, Handler) override {
    return Status::OK();
  }
  Status Send(Message msg) override {
    sent.push_back(std::move(msg));
    return Status::OK();
  }
  Result<TimerId> ScheduleTimer(const std::string&, int64_t,
                                TimerCallback) override {
    return Status::Unimplemented("no timers");
  }
  void CancelTimer(TimerId) override {}
  void SetFaultPlan(FaultPlan) override {}
  int64_t now_us() const override { return 0; }
  void ChargeCompute(int64_t) override {}
  NetworkStats stats() const override { return {}; }
  void ResetStats() override {}

  std::vector<Message> sent;
};

PlacementState OneNodePlacement() {
  auto ring = ShardRing::Build({"store1"}, /*shard_count=*/1);
  EXPECT_TRUE(ring.ok()) << ring.status();
  return PlacementState(std::move(ring).value(), /*epoch=*/1);
}

MappingTable SmallTable() {
  MappingTable t = MappingTable::Create(Schema::Of({Attribute::String("a")}),
                                        Schema::Of({Attribute::String("b")}),
                                        "t")
                       .value();
  EXPECT_TRUE(t.AddPair({Value("a1")}, {Value("b1")}).ok());
  return t;
}

int64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(ClusterWakeupTest, FetchWakesForReplyBetweenScanAndWait) {
  RecordingNetwork net;
  PlacementState placement = OneNodePlacement();
  ClusterTableSource::Options opts;
  opts.replica_timeout_us = kReplicaTimeoutUs;
  opts.fetch_timeout_us = 4 * kReplicaTimeoutUs;
  ClusterTableSource source("coord", &net, &placement, nullptr, opts);

  const MappingTable table = SmallTable();
  int hook_calls = 0;
  source.SetBeforeWaitHookForTest([&] {
    if (hook_calls++ > 0) return;
    ASSERT_EQ(net.sent.size(), 1u);
    const auto& fetch = std::get<ShardFetchMsg>(net.sent[0].payload);
    ShardRowsMsg reply;
    reply.request_id = fetch.request_id;
    reply.table_name = fetch.table_name;
    reply.node = "store1";
    reply.shard = fetch.shard;
    reply.version = 1;
    reply.total_rows = table.size();
    reply.x_schema = table.x_schema();
    reply.y_schema = table.y_schema();
    reply.row_indices = {0};
    reply.rows = table.rows();
    source.OnShardRows(reply);
  });

  auto start = std::chrono::steady_clock::now();
  auto fetched = source.Fetch("t");
  int64_t elapsed_us = ElapsedUs(start);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(fetched.value().table->Serialize(), table.Serialize());
  EXPECT_EQ(hook_calls, 1);
  EXPECT_LT(elapsed_us, kPromptUs) << "fetch slept through a delivered reply";
}

TEST(ClusterWakeupTest, ApplyWakesForAckBetweenScanAndWait) {
  RecordingNetwork net;
  PlacementState placement = OneNodePlacement();
  ClusterTableSink::Options opts;
  opts.replica_timeout_us = kReplicaTimeoutUs;
  opts.write_timeout_us = 4 * kReplicaTimeoutUs;
  opts.quorum = 1;
  ClusterTableSink sink("coord", &net, &placement, nullptr, opts);

  int hook_calls = 0;
  sink.SetBeforeWaitHookForTest([&] {
    if (hook_calls++ > 0) return;
    ASSERT_EQ(net.sent.size(), 1u);
    const auto& slice = std::get<WriteSliceMsg>(net.sent[0].payload);
    WriteAckMsg ack;
    ack.request_id = slice.request_id;
    ack.node = "store1";
    ack.shard = slice.shard;
    ack.applied = 1;
    ack.shard_version = slice.shard_version;
    sink.OnWriteAck(ack);
  });

  auto start = std::chrono::steady_clock::now();
  auto report = sink.Apply(SmallTable(), /*table_version=*/2);
  int64_t elapsed_us = ElapsedUs(start);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().acks, 1u);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_LT(elapsed_us, kPromptUs) << "apply slept through a delivered ack";
}

}  // namespace
}  // namespace cluster
}  // namespace hyperion
