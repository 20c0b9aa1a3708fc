#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "common/synchronization.h"
#include "core/cover_engine.h"
#include "core/curator.h"
#include "core/path.h"
#include "obs/metrics.h"
#include "p2p/wire.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "spans.h"
#include "stats.h"
#include "storage/shard_split.h"
#include "storage/table_store.h"
#include "workload/bio_network.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hyperion::BioConfig;
using hyperion::BioWorkload;
using hyperion::MappingTable;
using hyperion::PeerSpec;
using hyperion::QueryRequest;
using hyperion::QueryResponsePtr;
using hyperion::QueryService;
using hyperion::QueryServiceOptions;
using hyperion::Result;
using hyperion::Status;
using hyperion::TableSource;
using hyperion::TableStore;
using hyperion::VersionedTable;
namespace cluster = hyperion::cluster;
namespace obs = hyperion::obs;

// The bio catalog at 1,500 entities: 11 tables of 569-1,562 rows.
constexpr size_t kEntities = 1500;
// Exact counts (sessions, messages, slices...) are taken over this fixed
// prefix of a traced run's operations, so one seed repeats them exactly
// however fast the host runs.
constexpr uint64_t kExactOps = 200;
constexpr size_t kShards = 4;
// Operations per second of timed work each workload budgets for (see
// Loop), as measured on a 4-core x86 host at the benchmark's first commit.
constexpr double kServiceRwOpsPerS = 170;
constexpr double kClusterRwOpsPerS = 90;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Process and registry readings.

// A /proc/self/status field ("VmHWM", "VmRSS") in MB.
double ProcStatusMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// Sum of every counter named `name` whose labels include `label` (when
// given), over a registry snapshot.
uint64_t CounterSum(const obs::MetricsSnapshot& snap, const std::string& name,
                    const std::pair<std::string, std::string>* label = nullptr) {
  uint64_t total = 0;
  for (const obs::CounterSnapshot& c : snap.counters) {
    if (c.name != name) continue;
    if (label != nullptr) {
      auto it = c.labels.find(label->first);
      if (it == c.labels.end() || it->second != label->second) continue;
    }
    total += c.value;
  }
  return total;
}

// Counter movement between two snapshots.
struct Delta {
  const obs::MetricsSnapshot& before;
  const obs::MetricsSnapshot& after;
  double operator()(const std::string& name,
                    const std::pair<std::string, std::string>* label =
                        nullptr) const {
    return static_cast<double>(CounterSum(after, name, label) -
                               CounterSum(before, name, label));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// The query side: the seven Hugo->MIM paths as requests, and the
// centralized reference cover.

QueryRequest PathRequest(const std::vector<std::string>& dbs) {
  QueryRequest request;
  request.path_peers = dbs;
  request.x_attrs = {
      hyperion::Attribute::String(BioWorkload::AttrNameOf(dbs.front()))};
  request.y_attrs = {
      hyperion::Attribute::String(BioWorkload::AttrNameOf(dbs.back()))};
  return request;
}

class Paths {
 public:
  explicit Paths(const std::vector<PeerSpec>& peers) {
    for (const PeerSpec& spec : peers) specs_[spec.id] = spec;
    std::set<std::string> tables;
    for (const auto& dbs : BioWorkload::HugoMimPaths()) {
      requests_.push_back(PathRequest(dbs));
      for (size_t i = 0; i + 1 < dbs.size(); ++i) {
        for (const std::string& t : specs_.at(dbs[i]).tables_to.at(dbs[i + 1])) {
          tables.insert(t);
        }
      }
    }
    tables_.assign(tables.begin(), tables.end());
  }

  const std::vector<QueryRequest>& requests() const { return requests_; }

  // Name of the (first) table of `path`'s first hop.
  const std::string& FirstTable(size_t path) const {
    const auto& peers = requests_[path].path_peers;
    return specs_.at(peers[0]).tables_to.at(peers[1]).front();
  }

  // The table a write goes to: uniform over every table on the paths.
  // Uniform rather than weighted by path popularity, which would
  // invalidate the hottest path so often that cluster_rw's cache hit
  // ratio would sit near one half, and its median query latency would
  // jump between a hit and a miss from one seed to the next.
  const std::string& WriteTable(const Op& op) const {
    return tables_[op.pick_table % tables_.size()];
  }

  // CoverEngine::ComputeCover over `path`'s tables as `source` holds them
  // now: the centralized oracle the distributed protocol must match.
  Result<MappingTable> ReferenceCover(const TableSource& source,
                                      size_t path) const {
    const QueryRequest& request = requests_[path];
    std::vector<hyperion::AttributeSet> attrs;
    std::vector<std::vector<hyperion::MappingConstraint>> hops;
    for (size_t i = 0; i < request.path_peers.size(); ++i) {
      const PeerSpec& spec = specs_.at(request.path_peers[i]);
      attrs.push_back(spec.attributes);
      if (i + 1 == request.path_peers.size()) break;
      std::vector<hyperion::MappingConstraint> hop;
      for (const std::string& name :
           spec.tables_to.at(request.path_peers[i + 1])) {
        HYP_ASSIGN_OR_RETURN(VersionedTable vt, source.Fetch(name));
        hop.emplace_back(vt.table);
      }
      hops.push_back(std::move(hop));
    }
    HYP_ASSIGN_OR_RETURN(hyperion::ConstraintPath constraint_path,
                         hyperion::ConstraintPath::Create(
                             std::move(attrs), std::move(hops),
                             request.path_peers));
    return hyperion::CoverEngine().ComputeCover(
        constraint_path, {request.x_attrs.front().name()},
        {request.y_attrs.front().name()});
  }

 private:
  std::map<std::string, PeerSpec> specs_;
  std::vector<QueryRequest> requests_;
  std::vector<std::string> tables_;  // every table on a path, sorted
};

// Byte form two covers are compared in.  The distributed protocol and the
// centralized engine may emit rows in different orders, so the rows are
// sorted; the header lines and every row must match byte for byte.
std::string CanonicalBytes(const MappingTable& table) {
  std::string text = table.Serialize();
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  // Rows follow the "y:" schema line.
  auto rows = std::find_if(lines.begin(), lines.end(), [](const std::string& l) {
    return l.rfind("y:", 0) == 0;
  });
  if (rows != lines.end()) std::sort(rows + 1, lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

// A curator write: one new row, made of an existing row's X and another
// row's Y, union-merged into `table` (the CLI `write` verb's primitive).
struct CuratorWrite {
  MappingTable merged;
  MappingTable delta;
};

Result<CuratorWrite> MergeNewRow(const MappingTable& table, const Op& op) {
  if (table.empty()) return Status::FailedPrecondition("empty table");
  const auto& rows = table.rows();
  const hyperion::Mapping& from_x = rows[op.pick_x % rows.size()];
  const hyperion::Mapping& from_y = rows[op.pick_y % rows.size()];
  hyperion::Tuple x, y;
  const size_t arity = table.schema().arity();
  for (size_t i = 0; i < arity; ++i) {
    const hyperion::Cell& cell =
        (i < table.x_arity() ? from_x : from_y).cells()[i];
    if (!cell.is_constant()) {
      return Status::FailedPrecondition("write source row has a variable");
    }
    (i < table.x_arity() ? x : y).push_back(cell.value());
  }
  CuratorWrite out;
  HYP_ASSIGN_OR_RETURN(out.delta, MappingTable::Create(table.x_schema(),
                                                       table.y_schema(),
                                                       table.name()));
  HYP_RETURN_IF_ERROR(out.delta.AddPair(x, y));
  HYP_ASSIGN_OR_RETURN(out.merged,
                       hyperion::MergeUnion(table, out.delta, table.name()));
  return out;
}

// Serialized bytes of a write's new row (the delta minus its header).
uint64_t NewRowBytes(const CuratorWrite& write) {
  auto empty = MappingTable::Create(write.delta.x_schema(),
                                    write.delta.y_schema(),
                                    write.delta.name());
  const size_t header = empty.ok() ? empty.value().Serialize().size() : 0;
  return write.delta.Serialize().size() - header;
}

// A ShardRows message carrying shard 0 of `table` cut four ways: the
// message size the cluster's fetch path puts on the wire.
hyperion::Message ShardRowsSample(const MappingTable& table) {
  auto shard_of = [](const std::string& key) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (unsigned char c : key) h = (h ^ c) * 1099511628211ULL;
    return h % kShards;
  };
  auto slices = hyperion::SliceTable(table, 1, shard_of, {0});
  hyperion::ShardRowsMsg rows;
  rows.table_name = table.name();
  rows.node = "store1";
  rows.version = 1;
  rows.total_rows = table.size();
  rows.x_schema = table.x_schema();
  rows.y_schema = table.y_schema();
  rows.row_indices = slices[0].row_indices;
  rows.rows = slices[0].rows;
  hyperion::Message msg;
  msg.from = "store1";
  msg.to = "coord";
  msg.payload = std::move(rows);
  return msg;
}

// ---------------------------------------------------------------------------
// The timing decorator handed to QueryService in place of the source.

class TimedSource : public TableSource {
 public:
  // `stall_ns` > 0 counts calls at least that long during which
  // `failures` did not move (cluster fetches).
  TimedSource(const TableSource* inner, SpanRecorder* spans,
              int64_t stall_ns = 0, const obs::Counter* failures = nullptr)
      : inner_(inner), spans_(spans), stall_ns_(stall_ns),
        failures_(failures) {}

  Result<VersionedTable> Fetch(const std::string& name) const override {
    if (!spans_->enabled() && stall_ns_ == 0) return inner_->Fetch(name);
    const uint32_t span = spans_->Begin("source.fetch", spans_->context_op(),
                                        spans_->context_parent());
    const uint64_t failures_before = failures_ ? failures_->value() : 0;
    const int64_t start = NowNs();
    auto result = inner_->Fetch(name);
    const int64_t took = NowNs() - start;
    spans_->End(span);
    hyperion::MutexLock lock(mu_);
    if (spans_->enabled()) fetch_ns_.push_back(static_cast<double>(took));
    if (stall_ns_ > 0 && took >= stall_ns_ &&
        (failures_ ? failures_->value() : 0) == failures_before) {
      ++stalls_;
    }
    return result;
  }

  std::vector<double> fetch_ns() const {
    hyperion::MutexLock lock(mu_);
    return fetch_ns_;
  }
  uint64_t stalls() const {
    hyperion::MutexLock lock(mu_);
    return stalls_;
  }

 private:
  const TableSource* inner_;
  SpanRecorder* spans_;
  const int64_t stall_ns_;
  const obs::Counter* failures_;
  mutable hyperion::Mutex mu_;
  mutable std::vector<double> fetch_ns_ GUARDED_BY(mu_);
  mutable uint64_t stalls_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// The measured loop shared by the workloads.

struct LayerSamples {
  std::vector<double> hit_ns, miss_ns, miss_self_ns;
  std::vector<double> cover_ns, encode_ns, decode_ns, put_ns, apply_ns;
  double cover_rows = 0;  // summed over the exact prefix
  uint64_t prefix_covers = 0;
};

// The timed phase runs a fixed number of operations: `ops_per_s` (the
// workload's rate on a 4-core x86 host) times the requested seconds, so a
// run does the same work however fast the host or the program is, and
// footprints that grow with work done (the cluster's write logs) compare
// across runs.  Twice the requested seconds of timed work stops a run
// early, short of its samples if need be.
class Loop {
 public:
  Loop(const RunOptions& options, SpanRecorder* spans, RunReport* report,
       double ops_per_s)
      : options_(options), spans_(spans), report_(report),
        budget_(std::max<uint64_t>(
            static_cast<uint64_t>(std::ceil(options.seconds * ops_per_s)),
            options.trace ? kExactOps : 1)),
        cap_ns_(static_cast<int64_t>(2 * options.seconds * 1e9)) {}

  bool Continue() const {
    return ops_ < budget_ && (timed_ns_ < cap_ns_ ||
                              (options_.trace && ops_ < kExactOps));
  }
  uint64_t ops() const { return ops_; }
  uint64_t next_op_id() const { return ops_ + 1; }

  // Times one query through `service`; returns its response.
  QueryResponsePtr Query(QueryService* service, const QueryRequest& request) {
    const uint64_t op = next_op_id();
    const int64_t start = NowNs();
    const uint32_t root = spans_->Begin("op", op, 0);
    const uint32_t exec = spans_->Begin("service.execute", op, root);
    spans_->SetContext(op, exec);
    QueryResponsePtr response = service->Execute(request);
    spans_->End(exec);
    spans_->End(root);
    const int64_t took = NowNs() - start;
    Finish(took, response->status.ok(), &query_ms_);
    if (options_.trace && response->status.ok()) {
      const bool hit = response->from_cache;
      spans_->SetNote(exec, hit ? "hit" : "miss");
      if (hit) {
        layers_.hit_ns.push_back(static_cast<double>(took));
      } else {
        RecordMiss(exec);
      }
    }
    return response;
  }

  // Times one write: `body` gets the op id and the op's root span.
  template <typename Body>
  bool Write(Body&& body) {
    const uint64_t op = next_op_id();
    const int64_t start = NowNs();
    const uint32_t root = spans_->Begin("op", op, 0);
    spans_->SetContext(op, root);
    const bool ok = body(op, root);
    spans_->End(root);
    Finish(NowNs() - start, ok, &write_ms_);
    return ok;
  }

  // Times `fn` as span `name` under (`op`, `parent`) into `samples`.
  template <typename Fn>
  auto Spanned(const char* name, uint64_t op, uint32_t parent,
               std::vector<double>* samples, Fn&& fn) {
    const uint32_t span = spans_->Begin(name, op, parent);
    const int64_t start = NowNs();
    auto result = fn();
    const int64_t took = NowNs() - start;
    spans_->End(span);
    if (options_.trace) samples->push_back(static_cast<double>(took));
    return result;
  }

  // After a miss, outside the timed op: the direct engine call, whose
  // result the caller may use as its reference cover.
  Result<MappingTable> DirectCover(const Paths& paths,
                                   const TableSource& source, size_t path,
                                   uint64_t op) {
    auto cover = Spanned("core.cover", op, 0, &layers_.cover_ns, [&] {
      return paths.ReferenceCover(source, path);
    });
    if (options_.trace && cover.ok() && ops_ <= kExactOps) {
      layers_.cover_rows += static_cast<double>(cover.value().size());
      ++layers_.prefix_covers;
    }
    return cover;
  }

  // After a miss, outside the timed op: one encode and one decode of a
  // ShardRows-sized message.
  void DirectWire(const hyperion::Message& msg, uint64_t op) {
    if (!options_.trace) return;
    std::string bytes = Spanned("p2p.wire.encode", op, 0, &layers_.encode_ns,
                                [&] { return hyperion::wire::EncodeMessage(msg); });
    auto decoded = Spanned("p2p.wire.decode", op, 0, &layers_.decode_ns,
                           [&] { return hyperion::wire::DecodeMessage(bytes); });
    if (!decoded.ok()) Error("wire round trip failed: " + decoded.status().ToString());
  }

  void Error(const std::string& message) {
    if (report_->errors.size() < 20) report_->errors.push_back(message);
  }

  // Takes the registry snapshot that closes the exact prefix of a traced
  // run; true exactly once, right after the prefix's last operation.
  bool MaybeSnapshotPrefix() {
    if (!options_.trace || ops_ != kExactOps || prefix_) return false;
    prefix_ = obs::MetricRegistry::Default().Snapshot();
    return true;
  }
  const std::optional<obs::MetricsSnapshot>& prefix() const { return prefix_; }

  LayerSamples& layers() { return layers_; }
  const LayerSamples& layers() const { return layers_; }
  const std::vector<double>& query_ms() const { return query_ms_; }
  const std::vector<double>& write_ms() const { return write_ms_; }
  double timed_s() const { return static_cast<double>(timed_ns_) / 1e9; }
  uint64_t failed() const { return failed_; }

 private:
  void Finish(int64_t took, bool ok, std::vector<double>* samples) {
    timed_ns_ += took;
    ++ops_;
    samples->push_back(ok ? Ms(took) : kFailedLatency);
    if (!ok) ++failed_;
  }

  void RecordMiss(uint32_t exec) {
    std::vector<Span> tail = spans_->spans_since(exec);
    const Span& span = tail.front();
    std::vector<Span> fetches;
    for (const Span& s : tail) {
      if (s.parent == exec) fetches.push_back(s);
    }
    layers_.miss_ns.push_back(static_cast<double>(span.duration_ns()));
    layers_.miss_self_ns.push_back(
        static_cast<double>(SelfTimeNs(span, std::move(fetches))));
  }

  const RunOptions& options_;
  SpanRecorder* spans_;
  RunReport* report_;
  const uint64_t budget_;
  const int64_t cap_ns_;
  int64_t timed_ns_ = 0;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> query_ms_, write_ms_;
  LayerSamples layers_;
  std::optional<obs::MetricsSnapshot> prefix_;
};

// ---------------------------------------------------------------------------
// Reporting.

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit) {
  out->push_back({name, value, unit});
}

// p50 and the tail quantile `tail` of one operation class.  Too few
// samples beyond the tail is a run error, never a silently weaker
// percentile.
void AddLatencies(RunReport* report, const std::string& kind,
                  const std::vector<double>& samples, double tail) {
  const std::string tail_name = "p" + std::to_string(std::lround(tail * 100));
  auto p50 = Quantile(samples, 0.50);
  auto tail_value = Quantile(samples, tail);
  if (!p50 || !tail_value) {
    report->errors.push_back(kind + ": " + std::to_string(samples.size()) +
                             " samples leave fewer than 10 beyond " +
                             tail_name + "; run longer");
    return;
  }
  Add(&report->metrics, kind + "_p50_ms", *p50, "ms");
  Add(&report->metrics, kind + "_" + tail_name + "_ms", *tail_value, "ms");
  Add(&report->info, std::string(kind) + "_samples",
      static_cast<double>(samples.size()), "count");
}

double P50(const std::vector<double>& ns, double scale) {
  return ns.empty() ? 0 : Median(ns) / scale;
}

// Tail quantile `q` of a per-layer timing; 0 when the layer was idle.
// With too few samples beyond the quantile the highest sample stands in,
// and an info line says so.
double Tail(const std::vector<double>& ns, double q, double scale,
            RunReport* report, const std::string& name) {
  if (ns.empty()) return 0;
  if (auto value = Quantile(ns, q)) return *value / scale;
  Add(&report->info, name + "_samples_below_floor",
      static_cast<double>(ns.size()), "count");
  return *std::max_element(ns.begin(), ns.end()) / scale;
}

// Everything a workload run gathers besides the loop's own samples.
struct Readings {
  std::vector<double> setup_s;  // one per set-up repetition
  obs::MetricsSnapshot start;   // registry at the start of the loop
  obs::MetricsSnapshot end;     // registry after the loop
  uint64_t prefix_invalidations = 0;
  double storage_open_ms = 0;
  std::vector<double> storage_fetch_ns;  // TableStore fetches
  uint64_t store_user_bytes = 0, store_dir_growth = 0;
  std::vector<double> cluster_fetch_ns;
  uint64_t fetch_stalls = 0, apply_stalls = 0;
  uint64_t wal_user_bytes = 0, wal_dir_growth = 0;
  double rss_growth_mb = 0;
  double wall_s = 0;  // loop wall time, checks included
};

void ReportEndToEnd(const Loop& loop, const Readings& in,
                    RunReport* report) {
  report->attempted = loop.ops();
  report->failed = loop.failed();
  Add(&report->metrics, "setup_s", Median(in.setup_s), "s");
  AddLatencies(report, "query", loop.query_ms(), 0.99);
  // Writes are at most a quarter of the operations, so a p99 would need
  // runs several times longer; and on a file-backed store a p95 sits on
  // the edge of the occasional slow file rewrite, which makes it unsteady.
  AddLatencies(report, "write", loop.write_ms(), 0.90);
  Add(&report->metrics, "ops_per_s",
      Ratio(static_cast<double>(loop.ops()), loop.timed_s()), "1/s");
  Add(&report->metrics, "rss_mb", ProcStatusMb("VmHWM"), "MB");
  Add(&report->info, "failed_share",
      Ratio(static_cast<double>(loop.failed()),
            static_cast<double>(loop.ops())),
      "share");
  Add(&report->info, "setup_runs", static_cast<double>(in.setup_s.size()),
      "count");
  Add(&report->info, "cluster.fetch_stalls",
      static_cast<double>(in.fetch_stalls), "count");
  Add(&report->info, "cluster.apply_stalls",
      static_cast<double>(in.apply_stalls), "count");
}

// The metric list every traced run reports; zeros where a workload leaves
// a layer idle.
void ReportLayers(const Loop& loop, const Readings& in, RunReport* report) {
  report->attempted = loop.ops();
  report->failed = loop.failed();
  const LayerSamples& l = loop.layers();
  std::vector<Metric>* m = &report->metrics;
  const obs::MetricsSnapshot& prefix = loop.prefix() ? *loop.prefix() : in.end;
  Delta exact{in.start, prefix};
  Delta whole{in.start, in.end};
  const std::pair<std::string, std::string> sim{"network", "sim"};
  const std::pair<std::string, std::string> tcp{"network", "tcp"};
  const double sessions = exact("service.sessions_executed");
  const double ops = static_cast<double>(loop.ops());

  Add(m, "service.execute_hit_us", P50(l.hit_ns, 1e3), "us");
  Add(m, "service.execute_miss_ms", P50(l.miss_ns, 1e6), "ms");
  Add(m, "service.miss_self_ms", P50(l.miss_self_ns, 1e6), "ms");
  Add(m, "service.hit_ratio",
      Ratio(exact("service.cache_hits"), exact("service.requests")), "ratio");
  Add(m, "service.sessions_executed", sessions, "count");
  Add(m, "service.invalidations",
      static_cast<double>(in.prefix_invalidations), "count");

  double cover_sum = 0, miss_sum = 0;
  for (double v : l.cover_ns) cover_sum += v;
  for (double v : l.miss_ns) miss_sum += v;
  Add(m, "core.cover_ms", P50(l.cover_ns, 1e6), "ms");
  Add(m, "core.cover_share", Ratio(cover_sum, miss_sum), "ratio");
  Add(m, "core.cover_rows",
      Ratio(l.cover_rows, static_cast<double>(l.prefix_covers)), "rows");
  Add(m, "core.semijoin_keep_ratio",
      Ratio(exact("semijoin.rows_kept"), exact("semijoin.rows_in")), "ratio");

  Add(m, "p2p.messages_per_session",
      Ratio(exact("net.messages_sent", &sim), sessions), "count");
  Add(m, "p2p.bytes_per_session",
      Ratio(exact("net.bytes_sent", &sim), sessions), "bytes");
  Add(m, "p2p.rows_streamed_per_session",
      Ratio(exact("cover.rows_streamed"), sessions), "rows");
  Add(m, "p2p.wire_encode_us", P50(l.encode_ns, 1e3), "us");
  Add(m, "p2p.wire_decode_us", P50(l.decode_ns, 1e3), "us");
  Add(m, "p2p.tcp_bytes_per_op", Ratio(whole("net.tcp.bytes_sent", &tcp), ops),
      "bytes");
  Add(m, "p2p.retransmits", whole("proto.retransmits"), "count");

  Add(m, "storage.open_ms", in.storage_open_ms, "ms");
  Add(m, "storage.put_ms", P50(l.put_ns, 1e6), "ms");
  Add(m, "storage.bytes_written_per_user_byte",
      Ratio(static_cast<double>(in.store_dir_growth),
            static_cast<double>(in.store_user_bytes)),
      "ratio");
  Add(m, "storage.fetch_us", P50(in.storage_fetch_ns, 1e3), "us");

  Add(m, "cluster.fetch_ms_p50", P50(in.cluster_fetch_ns, 1e6), "ms");
  Add(m, "cluster.fetch_ms_p99",
      Tail(in.cluster_fetch_ns, 0.99, 1e6, report, "cluster.fetch_ms_p99"),
      "ms");
  // Writes are a quarter of cluster_rw's operations: too few for a p99.
  Add(m, "cluster.apply_ms_p50", P50(l.apply_ns, 1e6), "ms");
  Add(m, "cluster.apply_ms_p95",
      Tail(l.apply_ns, 0.95, 1e6, report, "cluster.apply_ms_p95"), "ms");
  Add(m, "cluster.fetch_stalls", static_cast<double>(in.fetch_stalls), "count");
  Add(m, "cluster.apply_stalls", static_cast<double>(in.apply_stalls), "count");
  Add(m, "cluster.rows_per_wire_fetch",
      Ratio(exact("cluster.shard_rows_fetched"),
            exact("cluster.table_cache_misses")),
      "rows");
  Add(m, "cluster.replica_attempts_per_fetch",
      Ratio(exact("cluster.replica.attempts"), exact("cluster.shard_fetches")),
      "ratio");
  Add(m, "cluster.slices_per_write",
      Ratio(exact("cluster.write.slices_sent"),
            exact("cluster.write.requests")),
      "count");
  Add(m, "cluster.write_retries", whole("cluster.write.retries"), "count");
  Add(m, "cluster.wal_bytes_per_user_byte",
      Ratio(static_cast<double>(in.wal_dir_growth),
            static_cast<double>(in.wal_user_bytes)),
      "ratio");
  Add(m, "cluster.rss_growth_mb", in.rss_growth_mb, "MB");
  Add(m, "cluster.heartbeats_per_s",
      Ratio(whole("cluster.heartbeats_sent"), in.wall_s), "1/s");

  Add(m, "trace.ops_per_s", Ratio(ops, loop.timed_s()), "1/s");
  Add(&report->info, "trace.exact_prefix_ops",
      static_cast<double>(std::min<uint64_t>(loop.ops(), kExactOps)), "count");
}


QueryServiceOptions ServiceOptions(size_t cache_entries) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = cache_entries;
  return options;
}

BioConfig BioCatalogConfig() {
  BioConfig bio;
  bio.num_entities = kEntities;
  return bio;
}

// Path tables of a response must be at the versions `store` holds now
// (one client thread: nothing moves them between the op and this check).
bool VersionsCurrent(const QueryResponsePtr& response,
                     const TableStore& store) {
  for (const auto& [name, version] : response->table_versions) {
    if (store.VersionOf(name) != version) return false;
  }
  return true;
}

void Report(const Loop& loop, const Readings& in, const RunOptions& options,
            RunReport* report) {
  if (options.trace) {
    ReportLayers(loop, in, report);
  } else {
    ReportEndToEnd(loop, in, report);
  }
}

// ---------------------------------------------------------------------------
// service_rw: a directory-backed TableStore with the cover cache on; 90%
// Zipf-drawn queries, 10% curator writes.

void RunServiceRw(const RunOptions& options, SpanRecorder* spans,
                  RunReport* report) {
  Readings in;
  std::optional<hyperion::ServiceCatalog> catalog;
  std::unique_ptr<TableStore> store;
  std::unique_ptr<TimedSource> source;
  std::unique_ptr<QueryService> service;
  std::string dir;
  std::vector<double> open_ms;
  constexpr int kSetups = 11;
  for (int i = 0; i < kSetups; ++i) {
    // Release the previous set-up first, so that rss_mb sees one system.
    service.reset();
    source.reset();
    store.reset();
    catalog.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = options.work_dir + "/tables" + std::to_string(i);
    const int64_t start = NowNs();
    auto built = hyperion::BuildBioCatalog(BioCatalogConfig());
    if (!built.ok()) {
      report->errors.push_back("catalog: " + built.status().ToString());
      return;
    }
    catalog.emplace(std::move(built).value());
    {
      auto writer = TableStore::Open(dir);
      if (!writer.ok()) {
        report->errors.push_back("store: " + writer.status().ToString());
        return;
      }
      for (const std::string& name : catalog->store->Names()) {
        Status put = writer.value().Put(*catalog->store->Get(name).value());
        if (!put.ok()) {
          report->errors.push_back("store put: " + put.ToString());
          return;
        }
      }
    }
    const int64_t open_start = NowNs();
    auto loaded = TableStore::Open(dir);
    open_ms.push_back(Ms(NowNs() - open_start));
    if (!loaded.ok()) {
      report->errors.push_back("store open: " + loaded.status().ToString());
      return;
    }
    store = std::make_unique<TableStore>(std::move(loaded).value());
    source = std::make_unique<TimedSource>(store.get(), spans);
    service = std::make_unique<QueryService>(source.get(), catalog->peers,
                                             ServiceOptions(1024));
    in.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  in.storage_open_ms = Median(open_ms);

  const Paths paths(catalog->peers);
  std::vector<hyperion::Message> wire_sample;
  for (size_t p = 0; p < paths.requests().size(); ++p) {
    wire_sample.push_back(
        ShardRowsSample(*store->Get(paths.FirstTable(p)).value()));
  }
  // Per path, the latest verified cover: a hit must serve exactly it.
  struct Verified {
    std::string bytes;
    std::shared_ptr<const MappingTable> cover;
  };
  std::map<size_t, Verified> verified;

  Loop loop(options, spans, report, kServiceRwOpsPerS);
  in.start = obs::MetricRegistry::Default().Snapshot();
  const uint64_t invalidations_start = service->cache_stats().invalidations;
  const uint64_t dir_start = DirBytes(dir);
  const int64_t wall_start = NowNs();
  OpStream stream(options.seed, paths.requests().size(), 0.10);
  while (loop.Continue()) {
    const Op op = stream.Next();
    const uint64_t id = loop.next_op_id();
    if (!op.write) {
      QueryResponsePtr response =
          loop.Query(service.get(), paths.requests()[op.path]);
      if (!response->status.ok()) {
        loop.Error("service_rw query failed: " + response->status.ToString());
      } else if (!VersionsCurrent(response, *store)) {
        loop.Error("service_rw served a cover at stale table versions");
      } else if (Verified& v = verified[op.path];
                 !response->from_cache || v.cover != response->cover) {
        // A miss, or a hit on a cover not verified yet: compare with a
        // fresh uncached computation at the same versions.
        auto reference = loop.DirectCover(paths, *store, op.path, id);
        if (!reference.ok()) {
          loop.Error("reference: " + reference.status().ToString());
        } else {
          v.bytes = CanonicalBytes(reference.value());
          v.cover = response->cover;
          if (CanonicalBytes(*response->cover) != v.bytes) {
            loop.Error("service_rw: path " + std::to_string(op.path) +
                       " cover differs from a fresh computation");
          }
        }
        if (!response->from_cache) loop.DirectWire(wire_sample[op.path], id);
      }
    } else {
      const std::string& table = paths.WriteTable(op);
      std::optional<CuratorWrite> write;
      loop.Write([&](uint64_t op_id, uint32_t root) {
        auto current = store->Get(table);
        if (!current.ok()) {
          loop.Error("service_rw read: " + current.status().ToString());
          return false;
        }
        auto merged = MergeNewRow(*current.value(), op);
        if (!merged.ok()) {
          loop.Error("service_rw merge: " + merged.status().ToString());
          return false;
        }
        write.emplace(std::move(merged).value());
        Status put = loop.Spanned("storage.put", op_id, root,
                                  &loop.layers().put_ns, [&] {
                                    return store->PutOrReplace(
                                        std::move(write->merged));
                                  });
        if (!put.ok()) loop.Error("service_rw put: " + put.ToString());
        return put.ok();
      });
      if (write) in.store_user_bytes += NewRowBytes(*write);
    }
    if (loop.MaybeSnapshotPrefix()) {
      in.prefix_invalidations =
          service->cache_stats().invalidations - invalidations_start;
    }
  }
  in.wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
  in.end = obs::MetricRegistry::Default().Snapshot();
  in.store_dir_growth = DirBytes(dir) - dir_start;
  in.storage_fetch_ns = source->fetch_ns();
  service.reset();
  Report(loop, in, options, report);
}

// ---------------------------------------------------------------------------
// cluster_rw: three storage nodes and a coordinator in this process over
// loopback TCP (R=2, 4 shards, write quorum 2, a write-log directory per
// node, ClusterConfig defaults for every timer); 75% queries through a
// QueryService over the coordinator's table source, 25% curator writes.

const std::vector<std::string> kStoreIds = {"store1", "store2", "store3"};

struct ClusterRig {
  std::vector<std::unique_ptr<cluster::ClusterNode>> stores;
  std::unique_ptr<cluster::ClusterNode> coord;

  ~ClusterRig() {
    if (coord) coord->Stop();
    for (auto& store : stores) store->Stop();
  }
};

cluster::ClusterConfig RigConfig() {
  cluster::ClusterConfig config;
  config.shard_count = kShards;
  config.replication = 2;
  config.write_quorum = 2;
  config.nodes = {{"coord", cluster::NodeRole::kCoordinator, "127.0.0.1", 0}};
  for (const std::string& id : kStoreIds) {
    config.nodes.push_back({id, cluster::NodeRole::kStorage, "127.0.0.1", 0});
  }
  return config;
}

Result<std::unique_ptr<ClusterRig>> StartRig(const TableStore& tables,
                                             const std::string& wal_dir) {
  auto rig = std::make_unique<ClusterRig>();
  cluster::ClusterConfig config = RigConfig();
  cluster::ClusterConfig resolved = config;
  for (const std::string& id : kStoreIds) {
    TableStore store;
    for (const std::string& name : tables.Names()) {
      HYP_RETURN_IF_ERROR(store.Put(*tables.Get(name).value()));
    }
    HYP_ASSIGN_OR_RETURN(auto node, cluster::ClusterNode::Create(
                                        config, id, std::move(store)));
    node->SetWriteLogDir(wal_dir + "/" + id);
    HYP_RETURN_IF_ERROR(node->Bind());
    HYP_ASSIGN_OR_RETURN(uint16_t port, node->ListenPort());
    for (cluster::NodeSpec& spec : resolved.nodes) {
      if (spec.id == id) spec.port = port;
    }
    rig->stores.push_back(std::move(node));
  }
  for (auto& store : rig->stores) HYP_RETURN_IF_ERROR(store->Start());
  HYP_ASSIGN_OR_RETURN(rig->coord,
                       cluster::ClusterNode::Create(resolved, "coord",
                                                    TableStore()));
  HYP_RETURN_IF_ERROR(rig->coord->Bind());
  HYP_RETURN_IF_ERROR(rig->coord->Start());
  if (!rig->coord->WaitAllAlive(10'000'000)) {
    return Status::Unavailable("cluster members did not all become alive");
  }
  return rig;
}

void RunClusterRw(const RunOptions& options, SpanRecorder* spans,
                  RunReport* report) {
  Readings in;
  std::optional<hyperion::ServiceCatalog> catalog;  // its store: the mirror
  std::unique_ptr<ClusterRig> rig;
  std::string wal_dir;
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    // Release the previous set-up first, so that rss_mb sees one system.
    rig.reset();
    catalog.reset();
    if (!wal_dir.empty()) fs::remove_all(wal_dir);
    wal_dir = options.work_dir + "/wal" + std::to_string(i);
    fs::create_directories(wal_dir);
    const int64_t start = NowNs();
    auto built = hyperion::BuildBioCatalog(BioCatalogConfig());
    if (!built.ok()) {
      report->errors.push_back("catalog: " + built.status().ToString());
      return;
    }
    catalog.emplace(std::move(built).value());
    auto started = StartRig(*catalog->store, wal_dir);
    if (!started.ok()) {
      report->errors.push_back("cluster: " + started.status().ToString());
      return;
    }
    rig = std::move(started).value();
    in.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  TableStore& mirror = *catalog->store;
  const cluster::ClusterConfig config = RigConfig();
  const int64_t fetch_timeout_ns =
      static_cast<int64_t>(config.replica_timeout_ms) * 1'000'000;
  // The sink's per-replica attempt deadline is the same config value.
  const int64_t apply_timeout_ns = fetch_timeout_ns;
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  const obs::Counter* fetch_failures =
      registry.GetCounter("cluster.shard_fetch_failures");
  const obs::Counter* write_retries =
      registry.GetCounter("cluster.write.retries");
  TimedSource source(rig->coord->table_source(), spans, fetch_timeout_ns,
                     fetch_failures);
  auto service = std::make_unique<QueryService>(&source, catalog->peers,
                                                ServiceOptions(1024));

  const Paths paths(catalog->peers);
  std::vector<hyperion::Message> wire_sample;
  for (size_t p = 0; p < paths.requests().size(); ++p) {
    wire_sample.push_back(
        ShardRowsSample(*mirror.Get(paths.FirstTable(p)).value()));
  }

  Loop loop(options, spans, report, kClusterRwOpsPerS);
  in.start = registry.Snapshot();
  const uint64_t invalidations_start = service->cache_stats().invalidations;
  const uint64_t wal_start = DirBytes(wal_dir);
  const double rss_start = ProcStatusMb("VmRSS");
  const int64_t wall_start = NowNs();
  OpStream stream(options.seed, paths.requests().size(), 0.25);
  while (loop.Continue()) {
    const Op op = stream.Next();
    const uint64_t id = loop.next_op_id();
    if (!op.write) {
      QueryResponsePtr response =
          loop.Query(service.get(), paths.requests()[op.path]);
      if (!response->status.ok()) {
        loop.Error("cluster_rw query failed: " + response->status.ToString());
      } else if (!VersionsCurrent(response, mirror)) {
        loop.Error("cluster_rw served table versions the mirror lacks");
      } else if (options.trace && !response->from_cache) {
        // The direct engine call doubles as a check of the served cover.
        auto reference = loop.DirectCover(paths, mirror, op.path, id);
        if (!reference.ok()) {
          loop.Error("reference: " + reference.status().ToString());
        } else if (CanonicalBytes(reference.value()) !=
                   CanonicalBytes(*response->cover)) {
          loop.Error("cluster_rw: path " + std::to_string(op.path) +
                     " cover differs from a fresh computation");
        }
        loop.DirectWire(wire_sample[op.path], id);
      }
    } else {
      const std::string& table = paths.WriteTable(op);
      std::optional<CuratorWrite> write;
      uint64_t version = 0;
      loop.Write([&](uint64_t op_id, uint32_t root) {
        // The CLI `write` verb: Fetch, merge, Apply(version + 1), evict.
        auto fetched = source.Fetch(table);
        if (!fetched.ok()) {
          loop.Error("cluster_rw fetch: " + fetched.status().ToString());
          return false;
        }
        auto merged = MergeNewRow(*fetched.value().table, op);
        if (!merged.ok()) {
          loop.Error("cluster_rw merge: " + merged.status().ToString());
          return false;
        }
        write.emplace(std::move(merged).value());
        version = fetched.value().version + 1;
        const uint64_t retries_before = write_retries->value();
        const uint32_t span = spans->Begin("cluster.apply", op_id, root);
        const int64_t start = NowNs();
        auto applied = rig->coord->table_sink()->Apply(write->merged, version);
        const int64_t took = NowNs() - start;
        spans->End(span);
        if (options.trace) {
          loop.layers().apply_ns.push_back(static_cast<double>(took));
        }
        if (took >= apply_timeout_ns &&
            write_retries->value() == retries_before) {
          ++in.apply_stalls;
        }
        rig->coord->table_source()->EvictTable(table);
        if (!applied.ok()) {
          loop.Error("cluster_rw apply: " + applied.status().ToString());
        }
        return applied.ok();
      });
      if (write) {
        in.wal_user_bytes += NewRowBytes(*write);
        Status put = mirror.PutOrReplace(std::move(write->merged));
        if (!put.ok() || mirror.VersionOf(table) != version) {
          loop.Error("cluster_rw mirror out of step on table " + table);
        }
      }
    }
    if (loop.MaybeSnapshotPrefix()) {
      in.prefix_invalidations =
          service->cache_stats().invalidations - invalidations_start;
    }
  }
  in.wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
  in.end = registry.Snapshot();
  in.wal_dir_growth = DirBytes(wal_dir) - wal_start;
  in.rss_growth_mb = ProcStatusMb("VmRSS") - rss_start;
  in.cluster_fetch_ns = source.fetch_ns();
  in.fetch_stalls = source.stalls();

  // Final covers: byte-identical to a single-process service over the
  // mirror store, which received the same writes.
  QueryService local(&mirror, catalog->peers, ServiceOptions(0));
  for (size_t p = 0; p < paths.requests().size(); ++p) {
    QueryResponsePtr served = service->Execute(paths.requests()[p]);
    QueryResponsePtr expected = local.Execute(paths.requests()[p]);
    if (!served->status.ok() || !expected->status.ok()) {
      loop.Error("cluster_rw final cover query failed on path " +
                 std::to_string(p));
    } else if (served->cover->Serialize() != expected->cover->Serialize()) {
      loop.Error("cluster_rw: final cover of path " + std::to_string(p) +
                 " differs from the single-process mirror");
    }
  }
  service.reset();
  Report(loop, in, options, report);
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  SpanRecorder spans(options.trace);
  if (options.workload == "service_rw") {
    RunServiceRw(options, &spans, &report);
  } else if (options.workload == "cluster_rw") {
    RunClusterRw(options, &spans, &report);
  } else {
    report.errors.push_back("unknown workload '" + options.workload + "'");
  }
  if (options.trace && !options.span_out.empty() &&
      !spans.WriteJsonLines(options.span_out)) {
    report.errors.push_back("cannot write spans to " + options.span_out);
  }
  return report;
}

}  // namespace perfbench
