// Golden covers: pinned digests of the exact bytes (rows and row order)
// the served protocol produces for fixed workloads.  Engine changes that
// are meant to be pure optimisations must leave every digest unchanged;
// a changed digest means a cover row, its cell rendering or its position
// moved.  When a change is meant to move covers, re-derive the digests
// from the failure messages and say why in the change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_ring.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "workload/b2b_network.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

uint64_t CoverDigest(const MappingTable& cover) {
  return cluster::StableHash64(cover.Serialize());
}

// Runs `req` through a single-worker sim QueryService and returns the
// digest of the served cover (0 on failure, after recording it).
uint64_t ServedDigest(const ServiceCatalog& catalog, QueryRequest req,
                      size_t* rows = nullptr) {
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.transport = ServiceTransport::kSim;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  QueryResponsePtr response = service.Execute(std::move(req));
  EXPECT_TRUE(response->status.ok()) << response->status;
  if (!response->status.ok() || response->cover == nullptr) return 0;
  if (rows != nullptr) *rows = response->cover->size();
  return CoverDigest(*response->cover);
}

// One digest per BioWorkload::HugoMimPaths() path, in that order.
// Semi-join filters only drop rows that cannot join, so each path serves
// the same bytes with the filters off and on.
constexpr uint64_t kBioGolden300[] = {
    0x0cf2f6aaf9fb35e1ull, 0xe60e23c5b4fb4ebbull, 0xbb85d3d89473bb67ull,
    0xdb5e39ebf14820bbull, 0x62901ec658d58c16ull, 0x894705434607dfbcull,
    0x40f91645f32da956ull,
};

TEST(GoldenCoverTest, HugoMimCoversAt300Entities) {
  BioConfig config;
  config.num_entities = 300;
  auto catalog = BuildBioCatalog(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  const auto paths = BioWorkload::HugoMimPaths();
  ASSERT_EQ(paths.size(), std::size(kBioGolden300));
  for (size_t i = 0; i < paths.size(); ++i) {
    for (bool filters : {false, true}) {
      QueryRequest req;
      req.path_peers = paths[i];
      req.x_attrs = {
          Attribute::String(BioWorkload::AttrNameOf(paths[i].front()))};
      req.y_attrs = {
          Attribute::String(BioWorkload::AttrNameOf(paths[i].back()))};
      req.options.semijoin_filters = filters;
      size_t rows = 0;
      uint64_t digest = ServedDigest(catalog.value(), req, &rows);
      EXPECT_EQ(digest, kBioGolden300[i])
          << "path " << i << " filters " << (filters ? "on" : "off") << " ("
          << rows << " rows): got 0x" << std::hex << digest;
    }
  }
}

// The B2B path P1 -> P2 -> P3 infers three partitions (names, addresses,
// and the middle-start age partition) and combines their covers.
constexpr uint64_t kB2bGolden60 = 0x103735909227f57bull;

TEST(GoldenCoverTest, B2bMultiPartitionCover) {
  B2bConfig config;
  config.rows_per_table = 60;
  auto workload = B2bWorkload::Generate(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  ServiceCatalog catalog;
  catalog.store = std::make_unique<TableStore>();
  for (const auto& [name, table] : workload.value().tables()) {
    ASSERT_TRUE(catalog.store->Put(*table).ok()) << name;
  }
  for (const std::string& peer : B2bWorkload::PeerNames()) {
    PeerSpec spec;
    spec.id = peer;
    spec.attributes = workload.value().AttrsOf(peer);
    catalog.peers.push_back(std::move(spec));
  }
  catalog.peers[0].tables_to["P2"] = {"m1", "m2", "m3", "m4"};
  catalog.peers[1].tables_to["P3"] = {"m5", "m6", "m7"};

  QueryRequest req;
  req.path_peers = B2bWorkload::PeerNames();
  req.x_attrs = workload.value().XAttrs();
  req.y_attrs = workload.value().YAttrs();
  size_t rows = 0;
  uint64_t digest = ServedDigest(catalog, req, &rows);
  EXPECT_EQ(digest, kB2bGolden60)
      << "(" << rows << " rows): got 0x" << std::hex << digest;
}

}  // namespace
}  // namespace hyperion
