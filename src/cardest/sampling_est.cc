#include "cardest/sampling_est.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>
#include <span>

#include "cardest/extended_table.h"
#include "common/arena.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/str_util.h"
#include "storage/filter.h"

namespace cardbench {

namespace {

/// BFS spanning tree of the graph restricted to `mask`, rooted at
/// `root_local`: tree steps in visit order (edges considered in query order
/// per frontier table) plus the unused (non-tree) in-mask edges.
struct GraphQueryTree {
  struct Step {
    const QueryGraph::EdgeInfo* edge;
    int next_local;
  };
  std::vector<Step> steps;
  std::vector<const QueryGraph::EdgeInfo*> non_tree;
};

GraphQueryTree BuildGraphQueryTree(const QueryGraph& graph, uint64_t mask,
                                   int root_local) {
  GraphQueryTree tree;
  uint64_t visited = uint64_t{1} << root_local;
  std::queue<int> frontier;
  frontier.push(root_local);
  std::vector<bool> used(graph.edges().size(), false);
  while (!frontier.empty()) {
    const int at = frontier.front();
    frontier.pop();
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      if (used[e]) continue;
      const QueryGraph::EdgeInfo& edge = graph.edges()[e];
      if ((edge.mask & mask) != edge.mask) continue;  // not in the sub-plan
      int other;
      if (edge.left_local == at) {
        other = edge.right_local;
      } else if (edge.right_local == at) {
        other = edge.left_local;
      } else {
        continue;
      }
      if (visited & (uint64_t{1} << other)) continue;
      used[e] = true;
      visited |= uint64_t{1} << other;
      tree.steps.push_back({&edge, other});
      frontier.push(other);
    }
  }
  for (size_t e = 0; e < graph.edges().size(); ++e) {
    const QueryGraph::EdgeInfo& edge = graph.edges()[e];
    if (!used[e] && (edge.mask & mask) == edge.mask) {
      tree.non_tree.push_back(&edge);
    }
  }
  return tree;
}

}  // namespace

// ----------------------------------------------------------- UniSample

UniSampleEstimator::UniSampleEstimator(const Database& db, size_t sample_size,
                                       uint64_t seed)
    : CardinalityEstimator(db),
      db_(db),
      sample_size_(sample_size),
      seed_(seed),
      rng_(seed) {
  Resample();
}

void UniSampleEstimator::Resample() {
  samples_.clear();
  for (const auto& name : db_.table_names()) {
    const size_t n = db_.TableOrDie(name).num_rows();
    std::vector<uint32_t>& sample = samples_[name];
    if (n <= sample_size_) {
      sample.resize(n);
      for (size_t i = 0; i < n; ++i) sample[i] = static_cast<uint32_t>(i);
    } else {
      sample.reserve(sample_size_);
      for (size_t i = 0; i < sample_size_; ++i) {
        sample.push_back(static_cast<uint32_t>(rng_.NextUint64(n)));
      }
    }
  }
  // Id-indexed view for mask-based dispatch (map nodes are stable).
  samples_by_id_.clear();
  samples_by_id_.reserve(db_.num_tables());
  for (const auto& name : db_.table_names()) {
    samples_by_id_.push_back(&samples_.at(name));
  }
}

std::vector<double> UniSampleEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  std::vector<double> out;
  out.reserve(masks.size());
  uint64_t union_mask = 0;
  for (uint64_t mask : masks) union_mask |= mask;

  // One sample probe per table of the batch: rows x sampled selectivity.
  std::vector<double> contribution(graph.num_tables(), 1.0);
  for (uint64_t rest = union_mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    const QueryGraph::TableInfo& info = graph.table(local);
    const std::vector<uint32_t>& sample = *samples_by_id_[info.table_id];
    // Probe scratch lives on the thread's arena: the sample copy is released
    // when the frame unwinds, so repeated probes allocate zero heap.
    ArenaFrame frame(ThreadLocalArena());
    uint32_t* passing = frame.arena().AllocateArray<uint32_t>(sample.size());
    std::memcpy(passing, sample.data(), sample.size() * sizeof(uint32_t));
    const size_t pass =
        FilterRowsConjunction(info.compiled, passing, sample.size());
    const double sel = sample.empty()
                           ? 1.0
                           : static_cast<double>(pass) /
                                 static_cast<double>(sample.size());
    contribution[local] = static_cast<double>(info.table->num_rows()) * sel;
  }
  // One uniformity selectivity per edge of the query.
  std::vector<double> edge_sel;
  edge_sel.reserve(graph.edges().size());
  for (const auto& edge : graph.edges()) {
    edge_sel.push_back(1.0 / JoinUniformityDivisor(edge));
  }

  for (uint64_t mask : masks) {
    double card = 1.0;
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      card *= contribution[std::countr_zero(rest)];
    }
    for (size_t e = 0; e < graph.edges().size(); ++e) {
      if ((graph.edges()[e].mask & mask) != graph.edges()[e].mask) continue;
      card *= edge_sel[e];
    }
    out.push_back(std::max(card, 1e-6));
  }
  return out;
}

Status UniSampleEstimator::UpdateImpl(const InsertionBatch& batch) {
  if (batch.IsFullRefresh()) {
    Resample();
    return Status::OK();
  }
  for (const TableDelta& delta : batch.tables) {
    // Resample and Deserialize keep a sample of every table.
    std::vector<uint32_t>& sample = samples_.at(delta.table);
    const size_t n0 = delta.old_num_rows;
    const size_t n1 = delta.new_num_rows;
    if (n1 <= n0) continue;
    if (n1 <= sample_size_) {
      // Still below the sample budget: the sample is the identity map and
      // simply absorbs every inserted row id.
      for (size_t r = sample.size(); r < n1; ++r) {
        sample.push_back(static_cast<uint32_t>(r));
      }
      continue;
    }
    if (n0 <= sample_size_) {
      // Identity -> sampled transition (rare, once per table): redraw.
      sample.clear();
      sample.reserve(sample_size_);
      for (size_t i = 0; i < sample_size_; ++i) {
        sample.push_back(static_cast<uint32_t>(rng_.NextUint64(n1)));
      }
      continue;
    }
    // The sample is sample_size_ iid draws from [0, n0). U[0, n1) is the
    // mixture (n0/n1) * U[0, n0) + p * U[n0, n1) with p = (n1-n0)/n1, so
    // keeping each slot with probability n0/n1 and redrawing the rest
    // uniformly from the *inserted* range [n0, n1) yields iid draws from
    // [0, n1) — exactly the distribution a full Resample produces.
    // Geometric skips visit only the ~s * p slots that redraw, so the
    // refresh cost tracks the insertion fraction instead of the sample
    // size.
    const double p =
        static_cast<double>(n1 - n0) / static_cast<double>(n1);
    if (p <= 0.0) continue;
    const double inv_log1mp = 1.0 / std::log1p(-p);
    size_t idx = 0;
    while (idx < sample.size()) {
      const double u = std::max(rng_.NextDouble(), 1e-18);
      const double skip = std::floor(std::log(u) * inv_log1mp);
      if (skip >= static_cast<double>(sample.size() - idx)) break;
      idx += static_cast<size_t>(skip);
      sample[idx] =
          static_cast<uint32_t>(n0 + rng_.NextUint64(n1 - n0));
      ++idx;
    }
  }
  // samples_by_id_ points at map nodes (stable under in-place mutation);
  // nothing to rebuild.
  return Status::OK();
}

Status UniSampleEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("unisample");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(sample_size_);
  meta.PutU64(seed_);
  SectionWriter& samples = writer.AddSection("samples");
  samples.PutU64(samples_.size());
  for (const auto& [name, sample] : samples_) {
    samples.PutString(name);
    samples.PutU32s(sample);
  }
  return writer.WriteTo(out);
}

Result<std::unique_ptr<UniSampleEstimator>> UniSampleEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "unisample"));
  auto est = std::unique_ptr<UniSampleEstimator>(
      new UniSampleEstimator(db, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(est->sample_size_, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(est->seed_, meta.GetU64());
  est->rng_ = Rng(est->seed_);
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader samples, reader.Section("samples"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_tables, samples.GetU64());
  for (size_t t = 0; t < num_tables; ++t) {
    CARDBENCH_ASSIGN_OR_RETURN(std::string name, samples.GetString());
    const Table* table = db.FindTable(name);
    if (table == nullptr) {
      return Status::NotFound("sample for unknown table " + name);
    }
    CARDBENCH_ASSIGN_OR_RETURN(std::vector<uint32_t> sample,
                               samples.GetU32s());
    for (uint32_t row : sample) {
      if (row >= table->num_rows()) {
        return Status::InvalidArgument("sample row id out of range for " +
                                       name);
      }
    }
    est->samples_[name] = std::move(sample);
  }
  est->samples_by_id_.clear();
  est->samples_by_id_.reserve(db.num_tables());
  for (const auto& name : db.table_names()) {
    if (est->samples_.find(name) == est->samples_.end()) {
      return Status::InvalidArgument("artifact is missing a sample for " +
                                     name);
    }
    est->samples_by_id_.push_back(&est->samples_.at(name));
  }
  return est;
}

// ------------------------------------------------------------ WJSample

WjSampleEstimator::WjSampleEstimator(const Database& db, size_t num_walks,
                                     uint64_t seed)
    : CardinalityEstimator(db), db_(db), num_walks_(num_walks), seed_(seed) {}

Status WjSampleEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("wjsample");
  SectionWriter& meta = writer.AddSection("meta");
  meta.PutU64(num_walks_);
  meta.PutU64(seed_);
  return writer.WriteTo(out);
}

Result<std::unique_ptr<WjSampleEstimator>> WjSampleEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "wjsample"));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader meta, reader.Section("meta"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_walks, meta.GetU64());
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t seed, meta.GetU64());
  return std::make_unique<WjSampleEstimator>(db, num_walks, seed);
}

double WjSampleEstimator::EstimateCard(const QueryGraph& graph,
                                       uint64_t mask) const {
  // Per-sub-plan generator: seeding from the canonical key makes the walks
  // deterministic for a given sub-plan and keeps concurrent estimates from
  // sharing (and racing on) one generator stream.
  Rng rng(seed_ ^ Fnv1aHash(graph.CanonicalKey(mask)));
  // Root the walk at the smallest table (fewer wasted walks).
  int root = std::countr_zero(mask);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    if (graph.table(local).table->num_rows() <
        graph.table(root).table->num_rows()) {
      root = local;
    }
  }
  const GraphQueryTree tree = BuildGraphQueryTree(graph, mask, root);
  const Table& root_table = *graph.table(root).table;
  if (root_table.num_rows() == 0) return 1e-6;

  // Each tree step resolved once, before the walks: the key column on the
  // side already walked and the index of the side the step walks into.
  struct WalkStep {
    const Column* key;
    const HashIndex* index;
    int prev_local;
    int next_local;
  };
  std::vector<WalkStep> steps;
  steps.reserve(tree.steps.size());
  for (const auto& step : tree.steps) {
    const QueryGraph::EdgeInfo& edge = *step.edge;
    const bool next_is_left = edge.left_local == step.next_local;
    const Table& next = *(next_is_left ? edge.left_table : edge.right_table);
    steps.push_back(
        {next_is_left ? edge.right_column : edge.left_column,
         &next.GetIndex(static_cast<size_t>(
             next_is_left ? edge.left_column_id : edge.right_column_id)),
         next_is_left ? edge.right_local : edge.left_local, step.next_local});
  }

  // Filter conjunctions come pre-compiled from the graph; walks check
  // single rows against them.
  double total = 0.0;
  std::vector<uint32_t> walk_rows(graph.num_tables(), 0);
  for (size_t w = 0; w < num_walks_; ++w) {
    const uint32_t start =
        static_cast<uint32_t>(rng.NextUint64(root_table.num_rows()));
    if (!RowPassesCompiled(graph.table(root).compiled, start)) continue;
    walk_rows[root] = start;
    double weight = static_cast<double>(root_table.num_rows());
    bool dead = false;
    for (const WalkStep& step : steps) {
      const uint32_t prev_row = walk_rows[step.prev_local];
      if (!step.key->IsValid(prev_row)) {
        dead = true;
        break;
      }
      const std::span<const uint32_t> matches =
          step.index->Lookup(step.key->Get(prev_row));
      if (matches.empty()) {
        dead = true;
        break;
      }
      const uint32_t pick = matches[rng.NextUint64(matches.size())];
      if (!RowPassesCompiled(graph.table(step.next_local).compiled, pick)) {
        dead = true;
        break;
      }
      walk_rows[step.next_local] = pick;
      weight *= static_cast<double>(matches.size());
    }
    if (dead) continue;
    // Non-tree edges act as rejection filters on the completed walk.
    bool pass = true;
    for (const QueryGraph::EdgeInfo* edge : tree.non_tree) {
      const Column& lcol = *edge->left_column;
      const Column& rcol = *edge->right_column;
      const uint32_t lrow = walk_rows[edge->left_local];
      const uint32_t rrow = walk_rows[edge->right_local];
      if (!lcol.IsValid(lrow) || !rcol.IsValid(rrow) ||
          lcol.Get(lrow) != rcol.Get(rrow)) {
        pass = false;
        break;
      }
    }
    if (pass) total += weight;
  }
  const double estimate = total / static_cast<double>(num_walks_);
  return std::max(estimate, 1e-6);
}

// ------------------------------------------------------------- PessEst

PessEstEstimator::PessEstEstimator(const Database& db)
    : CardinalityEstimator(db), db_(db) {
  BuildDegreeSketches();
}

PessEstEstimator::PessEstEstimator(const Database& db, DeferredInit)
    : CardinalityEstimator(db), db_(db) {}

double PessEstEstimator::MaxDegreeOf(int table_id, int column_id,
                                     const Table& table) const {
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(table_id)) << 32) |
      static_cast<uint32_t>(column_id);
  {
    std::lock_guard<std::mutex> lock(degree_mu_);
    auto it = max_degree_.find(key);
    if (it != max_degree_.end()) return it->second;
  }
  double max_deg = 0.0;
  table.GetIndex(column_id).ForEachKey(
      [&](Value, std::span<const uint32_t> rows) {
        max_deg = std::max(max_deg, static_cast<double>(rows.size()));
      });
  std::lock_guard<std::mutex> lock(degree_mu_);
  max_degree_[key] = max_deg;
  return max_deg;
}

void PessEstEstimator::BuildDegreeSketches() {
  // Degrees are computed lazily per (table, column) on first use and cached
  // here; an update simply drops the cache.
  max_degree_.clear();
}

Status PessEstEstimator::UpdateImpl(const InsertionBatch&) {
  BuildDegreeSketches();
  return Status::OK();
}

std::vector<double> PessEstEstimator::EstimateCards(
    const QueryGraph& graph, std::span<const uint64_t> masks) const {
  // Exact filtered base cardinalities (the bound must hold), through the
  // graph's pre-bound compiled predicates. They are mask-independent —
  // count each table of the batch once, not once per sub-plan holding it.
  uint64_t union_mask = 0;
  for (uint64_t mask : masks) union_mask |= mask;
  std::vector<double> base(graph.num_tables(), 0.0);
  for (uint64_t rest = union_mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    const QueryGraph::TableInfo& info = graph.table(local);
    base[local] = static_cast<double>(
        CountRangeConjunction(info.compiled, 0, info.table->num_rows()));
  }
  std::vector<double> out;
  out.reserve(masks.size());
  for (uint64_t mask : masks) {
    out.push_back(BoundWithBase(graph, mask, base));
  }
  return out;
}

double PessEstEstimator::BoundWithBase(const QueryGraph& graph, uint64_t mask,
                                       const std::vector<double>& base) const {
  if (std::popcount(mask) == 1) {
    return std::max(base[std::countr_zero(mask)], 1e-6);
  }

  // Tightest bound over root choices: |σT_r| × Π max-degree of each tree
  // step's target column (unfiltered degrees keep it a true upper bound).
  double best = std::numeric_limits<double>::infinity();
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int root = std::countr_zero(rest);
    const GraphQueryTree tree = BuildGraphQueryTree(graph, mask, root);
    double bound = base[root];
    for (const auto& step : tree.steps) {
      const QueryGraph::EdgeInfo& edge = *step.edge;
      const bool next_is_left = edge.left_local == step.next_local;
      const QueryGraph::TableInfo& next = graph.table(step.next_local);
      const int next_col =
          next_is_left ? edge.left_column_id : edge.right_column_id;
      bound *= std::max(
          1.0, MaxDegreeOf(next.table_id, next_col, *next.table));
    }
    best = std::min(best, bound);
  }
  return std::max(best, 1e-6);
}

Status PessEstEstimator::Serialize(std::ostream& out) const {
  ModelWriter writer("pessest");
  SectionWriter& sketches = writer.AddSection("sketches");
  // One sketch per join-key column of the schema (the columns bounds can
  // traverse): max degree plus the degree histogram over distinct key
  // values. The histogram is what makes the sketch a real, scale-dependent
  // model artifact rather than a constant-size memo.
  std::vector<JoinEndpoint> endpoints;
  for (const auto& group : JoinColumnGroups(db_)) {
    for (const auto& endpoint : group) endpoints.push_back(endpoint);
  }
  std::sort(endpoints.begin(), endpoints.end());
  sketches.PutU64(endpoints.size());
  for (const auto& endpoint : endpoints) {
    const Table& table = db_.TableOrDie(endpoint.table);
    const int column_id =
        static_cast<int>(table.ColumnIndexOrDie(endpoint.column));
    std::map<uint64_t, uint64_t> degree_histogram;
    table.GetIndex(column_id).ForEachKey(
        [&](Value, std::span<const uint32_t> rows) {
          ++degree_histogram[rows.size()];
        });
    sketches.PutString(endpoint.table);
    sketches.PutString(endpoint.column);
    sketches.PutU64(degree_histogram.size());
    for (const auto& [degree, count] : degree_histogram) {
      sketches.PutU64(degree);
      sketches.PutU64(count);
    }
  }
  return writer.WriteTo(out);
}

Result<std::unique_ptr<PessEstEstimator>> PessEstEstimator::Deserialize(
    const Database& db, std::istream& in) {
  CARDBENCH_ASSIGN_OR_RETURN(ModelReader reader,
                             ModelReader::Open(in, "pessest"));
  auto est = std::unique_ptr<PessEstEstimator>(
      new PessEstEstimator(db, DeferredInit()));
  CARDBENCH_ASSIGN_OR_RETURN(SectionReader sketches,
                             reader.Section("sketches"));
  CARDBENCH_ASSIGN_OR_RETURN(uint64_t num_sketches, sketches.GetU64());
  for (size_t s = 0; s < num_sketches; ++s) {
    CARDBENCH_ASSIGN_OR_RETURN(std::string table_name, sketches.GetString());
    CARDBENCH_ASSIGN_OR_RETURN(std::string column_name, sketches.GetString());
    // Degrees are written in ascending order, so the bound the estimator
    // memoizes (the max degree) is the last histogram entry.
    CARDBENCH_ASSIGN_OR_RETURN(uint64_t histogram_size, sketches.GetU64());
    double max_deg = 0.0;
    for (size_t h = 0; h < histogram_size; ++h) {
      CARDBENCH_ASSIGN_OR_RETURN(uint64_t degree, sketches.GetU64());
      CARDBENCH_ASSIGN_OR_RETURN(uint64_t count, sketches.GetU64());
      (void)count;
      max_deg = static_cast<double>(degree);
    }
    const Table* table = db.FindTable(table_name);
    if (table == nullptr) {
      return Status::NotFound("degree sketch for unknown table " + table_name);
    }
    const int table_id = db.TableId(table_name);
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(table_id)) << 32) |
        static_cast<uint32_t>(table->ColumnIndexOrDie(column_name));
    est->max_degree_[key] = max_deg;
  }
  return est;
}

}  // namespace cardbench
