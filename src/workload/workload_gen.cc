#include "workload/workload_gen.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "cardest/extended_table.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace cardbench {

WorkloadOptions WorkloadOptions::StatsCeb() {
  WorkloadOptions options;
  options.num_templates = 70;
  options.num_queries = 146;
  options.min_tables = 2;
  options.max_tables = 8;
  options.max_predicates = 16;
  options.allow_fk_fk = true;
  options.seed = 2021;
  return options;
}

WorkloadOptions WorkloadOptions::JobLight() {
  WorkloadOptions options;
  options.num_templates = 23;
  options.num_queries = 70;
  options.min_tables = 2;
  options.max_tables = 5;
  options.max_predicates = 4;
  options.allow_fk_fk = false;
  options.max_true_card = 2e7;  // an order of magnitude below STATS-CEB
  options.seed = 1995;
  return options;
}

namespace {

/// True if (table, column) appears as the unique (left/PK) side of a schema
/// relation — used to distinguish PK-FK from FK-FK candidate edges.
bool IsPrimaryEndpoint(const Database& db, const JoinEndpoint& endpoint) {
  for (const auto& rel : db.join_relations()) {
    if (rel.left_table == endpoint.table &&
        rel.left_column == endpoint.column) {
      return true;
    }
  }
  return false;
}

/// A value drawn from the empirical distribution of a column (non-NULL).
/// Returns false if the column is entirely NULL.
bool SampleColumnValue(const Column& col, Rng& rng, Value* out) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t row = rng.NextUint64(std::max<size_t>(1, col.size()));
    if (row < col.size() && col.IsValid(row)) {
      *out = col.Get(row);
      return true;
    }
  }
  return false;
}

}  // namespace

Result<Query> RandomJoinTemplate(const Database& db, Rng& rng,
                                 size_t num_tables, bool allow_fk_fk) {
  const auto groups = JoinColumnGroups(db);

  Query query;
  const auto& names = db.table_names();
  query.tables.push_back(names[rng.NextUint64(names.size())]);

  for (size_t step = 1; step < num_tables; ++step) {
    // Candidate edges: endpoint on a current table paired with a
    // join-compatible endpoint on a new table.
    struct Candidate {
      JoinEdge edge;
      std::string new_table;
      bool pk_fk;
    };
    std::vector<Candidate> candidates;
    for (const auto& group : groups) {
      for (const auto& a : group) {
        if (query.TableIndex(a.table) < 0) continue;
        for (const auto& b : group) {
          if (query.TableIndex(b.table) >= 0) continue;
          const bool pk_fk =
              IsPrimaryEndpoint(db, a) || IsPrimaryEndpoint(db, b);
          if (!allow_fk_fk && !pk_fk) continue;
          candidates.push_back(
              {{a.table, a.column, b.table, b.column}, b.table, pk_fk});
        }
      }
    }
    if (candidates.empty()) {
      return Status::Internal("no join candidate extends the template");
    }
    // Bias toward PK-FK edges (FK-FK joins are rarer in real workloads).
    std::vector<double> weights;
    weights.reserve(candidates.size());
    for (const auto& cand : candidates) weights.push_back(cand.pk_fk ? 4.0 : 1.0);
    const Candidate& pick = candidates[rng.NextWeighted(weights)];
    query.joins.push_back(pick.edge);
    query.tables.push_back(pick.new_table);
  }
  return query;
}

void AddRandomPredicates(const Database& db, Rng& rng, size_t count,
                         Query& query) {
  // Collect filterable columns over the query's tables.
  std::vector<std::pair<std::string, std::string>> columns;
  for (const auto& table_name : query.tables) {
    const Table& table = db.TableOrDie(table_name);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.kind() == ColumnKind::kNumeric ||
          col.kind() == ColumnKind::kCategorical) {
        columns.push_back({table_name, col.name()});
      }
    }
  }
  if (columns.empty()) return;

  // Allow at most two predicates per column (a range).
  std::map<std::pair<std::string, std::string>, int> used;
  for (size_t added = 0; added < count;) {
    const auto& pick = columns[rng.NextUint64(columns.size())];
    if (used[pick] >= 2) {
      bool all_full = true;
      for (const auto& col : columns) {
        if (used[col] < 2) {
          all_full = false;
          break;
        }
      }
      if (all_full) return;
      continue;
    }
    const Column& col = db.TableOrDie(pick.first).ColumnByName(pick.second);
    Value value = 0;
    if (!SampleColumnValue(col, rng, &value)) {
      used[pick] = 2;
      continue;
    }
    CompareOp op;
    if (col.kind() == ColumnKind::kCategorical) {
      op = rng.NextBool(0.85) ? CompareOp::kEq : CompareOp::kNeq;
      used[pick] = 2;  // one predicate per categorical column
    } else {
      const double u = rng.NextDouble();
      if (u < 0.35) {
        op = CompareOp::kGe;
      } else if (u < 0.7) {
        op = CompareOp::kLe;
      } else if (u < 0.8) {
        op = CompareOp::kGt;
      } else if (u < 0.9) {
        op = CompareOp::kLt;
      } else {
        op = CompareOp::kEq;
        used[pick] = 2;
      }
    }
    query.predicates.push_back({pick.first, pick.second, op, value});
    ++used[pick];
    ++added;
  }
}

Result<Workload> GenerateWorkload(const Database& db,
                                  TrueCardService& truecard,
                                  const std::string& name,
                                  const WorkloadOptions& options) {
  Rng rng(options.seed);
  Workload workload;
  workload.name = name;

  // --- Phase 1: distinct join templates spanning the join-size range. ---
  std::vector<Query> templates;
  std::set<std::string> seen;
  size_t attempts = 0;
  while (templates.size() < options.num_templates &&
         attempts < options.num_templates * 300) {
    ++attempts;
    // Spread sizes: cycle through the size range, extra weight on 3-5.
    const size_t span = options.max_tables - options.min_tables + 1;
    size_t num_tables =
        options.min_tables + (templates.size() % span);
    if (rng.NextBool(0.3)) {
      num_tables = options.min_tables + rng.NextUint64(span);
    }
    auto tmpl = RandomJoinTemplate(db, rng, num_tables, options.allow_fk_fk);
    if (!tmpl.ok()) continue;
    const std::string key = tmpl->CanonicalKey();
    if (seen.count(key) > 0) continue;
    seen.insert(key);
    templates.push_back(std::move(*tmpl));
  }
  if (templates.size() < options.num_templates) {
    CARDBENCH_LOG("workload %s: only %zu/%zu distinct templates possible",
                  name.c_str(), templates.size(), options.num_templates);
  }
  if (templates.empty()) {
    return Status::Internal("no join templates could be generated");
  }

  // --- Phase 2: queries with spread-out true cardinalities. ---
  // Candidates are validated with a tightly-limited probe service over
  // their WHOLE sub-plan query space: the optimizer will request an
  // estimate for every connected sub-plan, and the benchmark needs every
  // one of those exact cardinalities — an unfiltered FK-FK sub-join that
  // dwarfs the execution budget disqualifies the query. Probe results are
  // imported into the caller's service afterwards.
  ExecLimits probe_limits;
  probe_limits.timeout_seconds = 15.0;
  probe_limits.max_intermediate_tuples = 30000000;
  TrueCardService probe(db, probe_limits);
  probe.ImportFrom(truecard);
  const double max_subplan_card = options.max_subplan_card > 0
                                      ? options.max_subplan_card
                                      : 3.0 * options.max_true_card;

  // Buckets over log10(card); a candidate is accepted if its bucket is not
  // over-full, pushing the workload toward a wide cardinality range.
  const size_t kBuckets = 10;
  std::vector<size_t> bucket_counts(kBuckets, 0);
  const double per_bucket_quota =
      2.0 * static_cast<double>(options.num_queries) / kBuckets;

  size_t tmpl_cursor = 0;
  size_t rejects = 0;
  while (workload.queries.size() < options.num_queries &&
         rejects < options.num_queries * 60) {
    const Query& tmpl = templates[tmpl_cursor % templates.size()];
    ++tmpl_cursor;
    Query query = tmpl;
    const size_t num_preds =
        1 + rng.NextUint64(std::max<size_t>(1, options.max_predicates));
    AddRandomPredicates(db, rng, num_preds, query);

    auto card = probe.Card(query);
    if (!card.ok() || *card < options.min_true_card ||
        *card > options.max_true_card) {
      ++rejects;
      continue;
    }
    const size_t bucket = std::min(
        kBuckets - 1,
        static_cast<size_t>(std::log10(std::max(1.0, *card))));
    if (static_cast<double>(bucket_counts[bucket]) >= per_bucket_quota &&
        rejects < options.num_queries * 40) {
      ++rejects;
      continue;
    }
    // Validate the entire sub-plan space.
    const QueryGraph graph(query, db);
    auto subplans = probe.AllSubplanCards(graph);
    if (!subplans.ok()) {
      ++rejects;
      continue;
    }
    bool subplans_ok = true;
    for (const auto& [mask, sub_card] : *subplans) {
      if (sub_card > max_subplan_card) {
        subplans_ok = false;
        break;
      }
    }
    if (!subplans_ok) {
      ++rejects;
      continue;
    }
    ++bucket_counts[bucket];
    query.name = name + " Q" + std::to_string(workload.queries.size() + 1);
    workload.queries.push_back(std::move(query));
  }
  truecard.ImportFrom(probe);
  CARDBENCH_LOG("workload %s: %zu queries over %zu templates (%zu rejected)",
                name.c_str(), workload.queries.size(), templates.size(),
                rejects);
  return workload;
}

Result<std::vector<TrainingQuery>> GenerateTrainingQueries(
    const Database& db, TrueCardService& truecard, size_t count,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<TrainingQuery> out;
  out.reserve(count);
  size_t failures = 0;
  while (out.size() < count && failures < count * 20) {
    const size_t num_tables = 1 + rng.NextUint64(5);
    Query query;
    if (num_tables == 1) {
      const auto& names = db.table_names();
      query.tables.push_back(names[rng.NextUint64(names.size())]);
    } else {
      auto tmpl = RandomJoinTemplate(db, rng, num_tables, /*allow_fk_fk=*/true);
      if (!tmpl.ok()) {
        ++failures;
        continue;
      }
      query = std::move(*tmpl);
    }
    AddRandomPredicates(db, rng, rng.NextUint64(6), query);
    auto card = truecard.Card(query);
    if (!card.ok()) {
      ++failures;
      continue;
    }
    out.push_back({std::move(query), *card});
  }
  return out;
}

}  // namespace cardbench
